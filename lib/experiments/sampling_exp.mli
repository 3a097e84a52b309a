(** Validation grid for the sampled-simulation engine: every workload is
    simulated once in full (the reference cycle count) and once per
    coverage level with {!Sempe_sampling.Sampling}, and the table reports
    the relative error and whether the reference landed inside the
    sampler's error band.

    The grid covers the djpeg formats (at a reduced block count so the
    full reference runs stay affordable) plus one microbenchmark chain,
    all under the SeMPE scheme. Workloads fan out through {!Batch};
    within a job the sampler runs with [workers:1], so {!render}, {!csv}
    and {!to_json} are the same on every run and at any [-j]. The
    wall-clock figures are kept apart, in {!render_wall}. *)

type cell = {
  workload : string;
  coverage : float;
  full_cycles : int;  (** reference: full detailed simulation *)
  full_s : float;  (** wall-clock seconds of the full run *)
  estimate : Sempe_sampling.Sampling.estimate;
  sampled_s : float;  (** wall-clock seconds of the sampled run *)
}

val error : cell -> float
(** |estimate - full| / full. *)

val in_bound : cell -> bool
(** Whether the full run's cycle count lies inside the sampler's band. *)

val speedup : cell -> float
(** [full_s /. sampled_s]; NaN if the sampled run was too fast to time. *)

val collect :
  ?coverages:float list
  -> ?interval:int
  -> ?warmup:int
  -> ?blocks:int
  -> ?mb_width:int
  -> ?mb_iters:int
  -> ?seed:int
  -> unit
  -> cell list
(** Run the grid. Defaults: coverages 5/10/25%, 2k warmup, 32 djpeg
    blocks. Unless [interval] is pinned, each workload's interval is
    sized from its dynamic instruction count (~40 intervals per run) so
    the smaller workloads still measure enough intervals for a
    meaningful band. *)

val render : cell list -> string
val csv : cell list -> string
val to_json : cell list -> Sempe_obs.Json.t

val render_wall : cell list -> string
(** The wall-clock seconds of each cell's full and sampled runs and the
    speedup, as a table. These differ run to run, so they are not in
    {!render}, {!csv} or {!to_json}. *)
