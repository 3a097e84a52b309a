(** One-call simulation harness: functional execution wired to the timing
    model, producing the combined report every experiment consumes. *)

type outcome = {
  exec : Exec.result;
  timing : Sempe_pipeline.Timing.report;
  warm : Sempe_pipeline.Warm.t;
      (** the caches and predictors as the run left them: the attacker's
          view of their contents ([Sempe_security.Observable.view]) is
          read from here, not from [timing] *)
}

val exec_config :
  support:Exec.support
  -> machine:Sempe_pipeline.Config.t
  -> mem_words:int
  -> max_instrs:int
  -> forgiving_oob:bool
  -> fault:Exec.fault
  -> Exec.config
(** The interpreter configuration {!simulate} and {!execute} run under:
    the SPM and jbTable sizes come from [machine]. Exposed for callers
    that drive {!Exec} sessions themselves (the sampler's fast-forward
    pass). *)

val simulate :
  ?support:Exec.support
  -> ?machine:Sempe_pipeline.Config.t
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Exec.fault
  -> ?init_mem:(Memory.t -> unit)
  -> ?sink:Sempe_obs.Sink.t
  -> Sempe_isa.Program.t
  -> outcome
(** [simulate prog] runs [prog] to [Halt] on a fresh machine: cold caches
    and a cold TAGE. [support] defaults to [Sempe_hw].

    [forgiving_oob] (default [true], the historical behavior) selects how
    wild memory accesses behave — see {!Exec.config}. Pass [false]
    (e.g. via [sempe-sim --strict-oob]) to make out-of-bounds accesses
    raise {!Exec.Out_of_bounds} instead of being clamped.

    [fault] (default {!Exec.No_fault}) injects a protocol bug for fuzzer
    self-tests — see {!Exec.fault}.

    [sink] attaches an observability sink ({!Sempe_obs.Sink}) as the
    timing model's probe for this run: per-µop pipeline spans, stall
    attribution and drain events flow to it. It is the one way to watch
    a run: the trace writers, the profiler, the leakage witnesses and the
    security observables all ride it, and {!Sempe_obs.Sink.tee} joins
    several. Sinks are passive — with or without one (and in particular
    with {!Sempe_obs.Sink.null}) the returned reports are identical. The
    caller owns the sink and must call its [close] itself (simulate does
    not). *)

val execute :
  ?support:Exec.support
  -> ?machine:Sempe_pipeline.Config.t
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Exec.fault
  -> ?init_mem:(Memory.t -> unit)
  -> ?warm:Sempe_pipeline.Warm.t
  -> Sempe_isa.Program.t
  -> Exec.result
(** Functional-only run: no timing model, no µop events. With [warm] the
    run functionally warms caches and predictors as it goes (fast-forward
    mode of sampled simulation); without it this is the fastest way to get
    architectural results. Same defaults and exceptions as {!simulate}. *)

val cycles : outcome -> int

val overhead : baseline:outcome -> outcome -> float
(** Execution-time ratio [protected / baseline]. *)

val seconds : Sempe_pipeline.Config.t -> int -> float
(** Convert a cycle count to seconds at the configured clock. *)
