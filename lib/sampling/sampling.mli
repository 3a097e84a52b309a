(** Sampled simulation: estimate a full run's cycle count from detailed
    measurement of a subset of execution intervals.

    The run is partitioned into fixed-length intervals of [interval]
    committed instructions. One sequential {e fast-forward} pass executes
    the program functionally — no timing model, but caches and branch
    predictors are warmed through the shared {!Sempe_pipeline.Warm}
    update protocol, so long-lived microarchitectural state stays
    faithful. At each measured interval's boundary the pass saves a
    {!Checkpoint} and submits a measurement job to a
    {!Sempe_util.Pool}; the job revives the checkpoint under a fresh
    detailed timing model, runs [warmup] instructions of detailed warmup
    (refilling pipeline-local state the checkpoint does not carry), then
    measures the interval's cycles as the advance of the commit
    frontier. Measurement overlaps the continuing fast-forward pass, and
    the measured intervals run in parallel across [workers] domains.

    Intervals are selected systematically: every [stride]-th interval,
    with [stride = round (1 / coverage)], starting at [offset]. The
    overall CPI is the ratio estimate (total measured cycles / total
    measured instructions), extrapolated to the full dynamic instruction
    count; the error band is the nearest-rank 5th..95th percentile of
    the per-interval CPI distribution, extrapolated the same way (and
    widened to include the point estimate).

    Results are deterministic at any worker count: checkpoints are
    produced by the single sequential pass, each measurement is a pure
    function of its checkpoint bytes, and aggregation follows interval
    order, not completion order.

    When [coverage] rounds to full coverage (stride 1), the estimator
    degenerates to one ordinary contiguous detailed simulation — exact by
    construction ([exact = true], zero-width error band, full
    {!Sempe_pipeline.Timing.report} attached). Independent per-interval
    measurements cannot reproduce the contiguous cycle count bit-exactly
    (pipeline state does not cross interval boundaries), so full coverage
    is served by the only construction that is.

    Sampling estimates {e performance}. Security and leakage experiments
    compare complete microarchitectural observables and must keep using
    full runs. *)

type config = {
  interval : int;  (** instructions per interval *)
  coverage : float;  (** fraction of intervals measured, in (0, 1] *)
  warmup : int;  (** detailed warmup instructions before each interval *)
  offset : int;  (** first measured interval (mod stride) *)
}

val default_config : config
(** 20k-instruction intervals, 25% coverage, 2k detailed warmup. *)

val predicted_cost_ratio : config -> float
(** Modeled wall-clock cost of the sampled path relative to a full
    detailed run of the same program: the functional fast-forward's
    per-instruction share, plus the detailed re-simulation of
    [warmup + interval] instructions and a checkpoint save/restore
    (charged as a fixed detailed-instruction equivalent) for one interval
    in every [stride]. Independent of program length. When the ratio
    reaches {!fallback_threshold}, {!estimate} answers with a contiguous
    exact run instead — same price, exact result. *)

val fallback_threshold : float
(** Ratio at which {!estimate} falls back to the exact path (0.95: the
    sampled machinery must promise a clear win, not a break-even). *)

type plan
(** A reusable record of one fast-forward pass: the checkpoints selected
    for measurement, the exact dynamic instruction count, and the
    boundary-defining parameters (interval, warmup, stride, offset) they
    were taken under. Reviving a plan through {!estimate}'s [?plan] skips
    the sequential functional-warming pass entirely — this is what the
    serving daemon's checkpoint cache stores, keyed by fingerprints of
    the program, its inputs, and the boundary configuration. A plan is
    only meaningful for the exact program/inputs/machine it was recorded
    from; the boundary parameters are validated on revival, the rest is
    the caller's cache key. *)

val plan_points : plan -> int
(** Number of checkpointed measurement intervals. *)

val plan_instructions : plan -> int
(** Total dynamic instruction count recorded by the pass. *)

val plan_bytes : plan -> int
(** Serialized checkpoint volume (telemetry, mirrors
    [estimate.checkpoint_bytes]). *)

val plan_to_bytes : plan -> string
(** Self-contained, versioned image of a plan: a magic/version header
    followed by a closure-free serialization (checkpoints are already
    flat byte strings, so nothing in the image is tied to the producing
    binary). This is what the serving daemon's persistent plan store
    writes to disk. *)

val plan_of_bytes : string -> (plan, string) result
(** Reload a {!plan_to_bytes} image. [Error] (never an exception) on a
    wrong or outdated magic header, a truncated or corrupt payload, or
    out-of-range boundary parameters — a stale store file from an older
    layout is skipped, not misloaded. Images are trusted local state
    (the daemon's own store directory), not untrusted network input. *)

type estimate = {
  instructions : int;  (** total dynamic instructions (exact; from the
                           fast-forward pass) *)
  cycles_estimate : int;
  cycles_low : int;  (** lower end of the 5th..95th percentile band *)
  cycles_high : int;
  cpi : float;  (** ratio estimate over the measured intervals *)
  intervals_total : int;
  intervals_measured : int;
  measured_instructions : int;
  measured_cycles : int;
  exact : bool;  (** [true] on the full-coverage degenerate path *)
  checkpoint_bytes : int;  (** serialized checkpoint volume (telemetry) *)
  report : Sempe_pipeline.Timing.report option;
      (** full detailed report; present iff [exact] *)
}

val estimate :
  ?machine:Sempe_pipeline.Config.t
  -> ?support:Sempe_core.Exec.support
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Sempe_core.Exec.fault
  -> ?init_mem:(Sempe_core.Memory.t -> unit)
  -> ?config:config
  -> ?workers:int
  -> ?plan:plan
  -> ?plan_out:(plan -> unit)
  -> ?cost_fallback:bool
  -> Sempe_isa.Program.t
  -> estimate
(** Run the sampled simulation. Simulation parameters mirror
    {!Sempe_core.Run.simulate}; [workers] sizes the measurement pool
    (default {!Sempe_util.Pool.default_workers}, and always capped at it:
    since the result does not depend on the worker count, oversubscribing
    the host's cores could only add GC-rendezvous latency). A program
    that halts before the first checkpoint falls back to the exact path,
    as does any cold run whose configuration's {!predicted_cost_ratio}
    reaches {!fallback_threshold} — sampling must promise a wall-clock
    win before the machinery is worth its overhead.

    [plan] revives a previously recorded {!plan}: the fast-forward pass
    is skipped and the plan's checkpoints are measured directly. Because
    each measurement is a pure function of its checkpoint bytes and the
    aggregation follows interval order, the estimate is byte-identical to
    the cold run that recorded the plan. The caller must pass the same
    program, inputs and machine the plan was recorded from.

    [plan_out] receives the recorded plan of a cold run that produced its
    estimate via the sampled path (it is not called on the exact or
    fell-back-to-exact paths, where there is nothing to reuse).

    [cost_fallback] (default [true]) enables the cost-model fallback;
    passing [false] forces the sampled path even when the model predicts
    no wall-clock win — useful for testing the sampler on deliberately
    tiny intervals, never for production estimates.

    @raise Invalid_argument on a non-positive [interval], a [coverage]
    outside (0, 1], or a [plan] recorded under different boundary
    parameters (interval/warmup/stride/offset). *)

val contains : estimate -> cycles:int -> bool
(** Whether the true cycle count lies within [cycles_low .. cycles_high]. *)

val relative_error : estimate -> cycles:int -> float
(** |estimate - truth| / truth against a known full-run cycle count. *)

val to_json : estimate -> Sempe_obs.Json.t
