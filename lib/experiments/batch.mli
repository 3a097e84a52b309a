(** Parallel fan-out for the evaluation grids.

    Every experiment in this library is a grid of independent simulations
    (each job builds its own machine: timing model, cache hierarchy,
    predictors), so the jobs are share-nothing and can run on a
    {!Sempe_util.Pool} of domains. {!map} is the single entry point the
    experiment modules use; results always come back in job order, so a
    parallel sweep renders byte-identical tables and figures to the
    sequential one.

    The degree of parallelism is a process-wide setting ([set_jobs],
    driven by the [-j] flag of [bench/main.exe] and [sempe-sim]); it
    defaults to 1 so that library users and tests get the plain
    sequential path unless they opt in. *)

val set_jobs : int -> unit
(** Set the process-wide worker count (clamped to
    [1 .. Sempe_util.Pool.max_workers]). [1] disables parallelism. *)

val jobs : unit -> int
(** Current process-wide worker count. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at the pool limit — what
    the binaries pass to {!set_jobs} when [-j] is not given. *)

type telemetry = {
  jobs_run : int;     (** jobs completed with progress on *)
  wall_s : float;     (** summed wall-clock time of the {!map} batches *)
  mean_s : float;     (** mean per-job wall-clock seconds *)
  p50_s : float;      (** median per-job seconds (nearest rank) *)
  p95_s : float;      (** 95th-percentile per-job seconds (nearest rank) *)
  max_s : float;      (** slowest single job *)
  throughput : float; (** [jobs_run / wall_s]; [0.] if no wall time *)
}

val telemetry : unit -> telemetry option
(** Aggregate per-job timing across every {!map} batch that ran with
    progress on ({!set_progress}); [None] before any such job has
    completed. A batch run with progress off records nothing, so a
    long-lived process that sweeps keeps no per-job history. *)

val set_progress : bool -> unit
(** When enabled, every {!map} batch records its per-job timings for
    {!telemetry} and writes a [\r[sweep] k/n] progress line to [stderr]
    as jobs complete, and a final [\[sweep\] n/n done in Xs] line at
    batch end. Off by default; [stdout] (tables, figures, reports) is
    never touched. *)

val map : ?j:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] runs [f] over [xs], fanning out to [?j] workers (default:
    the {!set_jobs} setting, further capped at [List.length xs]) and
    returning results in the order of [xs]. With one worker this is
    exactly [List.map f xs] in the calling domain. Jobs must be
    independent: [f] must not itself call [map]. *)

val map_product :
  ?j:int -> ('a -> 'b -> 'c) -> 'a list -> 'b list -> ('a * 'c list) list
(** [map_product f outer inner] runs [f o i] for every cell of the
    [outer x inner] grid as one flat batch of jobs, then regroups the
    results per [outer] element, both in input order. *)
