(** Figure 10: microbenchmark slowdowns versus nesting depth.

    (a) per-kernel execution-time slowdown over the unprotected baseline,
    SeMPE versus CTE/FaCT, for W = 1..10;
    (b) average slowdown normalized to the ideal overhead — the sum of the
    standalone execution times of all W+1 paths (§IV-A: any secure
    execution must be measured against that ideal). *)

type point = {
  width : int;
  baseline_cycles : int;
  sempe_cycles : int;
  cte_cycles : int;
  ideal_cycles : int;
}

type series = { kernel : string; points : point list }

val sweep : ?widths:int list -> ?iters:int -> unit -> series list
(** Defaults: W in 1..10, 3 iterations; one series per kernel. *)

val render_a : series list -> string

val render_chart : series list -> string
(** The cross-kernel summary of (a): per W, the average SeMPE and CTE
    slowdown over the baseline ({!cross_kernel_average}). *)

val render_b : series list -> string

val cross_kernel_average : f:(point -> float) -> series list -> (float * float) list
(** [(width, average of f over the series that sampled width)] for every
    width at least one series sampled, ascending. Series missing a width
    are skipped rather than raising. *)

val csv : series list -> string
(** Machine-readable dump: kernel, width, baseline/sempe/cte/ideal cycles. *)

val to_json : series list -> Sempe_obs.Json.t
(** One object per series with its per-width points (cycles and derived
    slowdowns). *)
