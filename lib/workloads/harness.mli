(** Build-and-run harness: apply a scheme's program transform, compile, set
    up memory, simulate, and read results back. *)

type built = {
  scheme : Sempe_core.Scheme.t;
  ast : Sempe_lang.Ast.program;       (** after the scheme transform *)
  prog : Sempe_isa.Program.t;
  layout : Sempe_lang.Codegen.layout;
}

val transform :
  ?fault:Sempe_core.Exec.fault ->
  Sempe_core.Scheme.t ->
  Sempe_lang.Ast.program ->
  Sempe_lang.Ast.program
(** Baseline strips the secret marks; SeMPE (and SeMPE-on-legacy) applies
    ShadowMemory privatization; CTE / Raccoon / MTO apply their softpath
    transforms.

    [fault] (default [No_fault]) seeds the corresponding protocol bug
    into the ShadowMemory lowering of the SeMPE builds — the fuzzer's
    self-test. [Skip_restore] drops the post-join merges and
    [Skip_nt_restore] lets the fall-through path write the original
    locations; see {!Sempe_lang.Shadow.privatize}. The execution-level
    counterpart (suppressed hardware register restores, see
    {!Sempe_core.Exec}) is architecturally silent for compiled programs
    because the memory-to-memory codegen leaves no register live across
    an eosJMP — the lowering is where the restore protocol is
    observable. *)

val build :
  ?fault:Sempe_core.Exec.fault ->
  Sempe_core.Scheme.t ->
  Sempe_lang.Ast.program ->
  built
(** [transform], then compile. [fault] as in {!transform}. *)

val init_mem_of :
  built
  -> globals:(string * int) list
  -> arrays:(string * int array) list
  -> Sempe_core.Memory.t
  -> unit
(** The memory initializer {!run} and {!sample} install the named
    [globals]/[arrays] with — exposed for callers that drive
    {!Sempe_core.Exec} sessions by hand (tests, custom samplers). *)

val run :
  ?machine:Sempe_pipeline.Config.t
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Sempe_core.Exec.fault
  -> ?globals:(string * int) list
  -> ?arrays:(string * int array) list
  -> ?observe:(Sempe_pipeline.Uop.event -> unit)
  -> ?sink:Sempe_obs.Sink.t
  -> built
  -> Sempe_core.Run.outcome
(** Simulates on a fresh machine with the scheme's hardware support.
    [globals]/[arrays] initialize named program state (secrets, inputs).
    [forgiving_oob] / [fault] as in {!Sempe_core.Run.simulate}.
    [sink] attaches an observability sink (see {!Sempe_core.Run.simulate}). *)

val sample :
  ?machine:Sempe_pipeline.Config.t
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Sempe_core.Exec.fault
  -> ?globals:(string * int) list
  -> ?arrays:(string * int array) list
  -> ?config:Sempe_sampling.Sampling.config
  -> ?workers:int
  -> ?plan:Sempe_sampling.Sampling.plan
  -> ?plan_out:(Sempe_sampling.Sampling.plan -> unit)
  -> ?cost_fallback:bool
  -> built
  -> Sempe_sampling.Sampling.estimate
(** Sampled simulation of the same workload setup as {!run} — see
    {!Sempe_sampling.Sampling.estimate}. For performance estimates only;
    security experiments need the full runs of {!run}. [plan]/[plan_out]
    revive / record the fast-forward pass's checkpoint plan; a revived
    plan must come from the same built program, inputs and sampling
    boundary config, and gives a byte-identical estimate. *)

val return_value : Sempe_core.Run.outcome -> int
(** [main]'s return value. *)

val read_global : built -> Sempe_core.Run.outcome -> string -> int
val read_array : built -> Sempe_core.Run.outcome -> string -> int array
