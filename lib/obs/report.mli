(** Machine-readable and stall-stack views of a {!Sempe_pipeline.Timing}
    run report. *)

val stall_stack_alist :
  Sempe_pipeline.Timing.report -> (Sempe_pipeline.Stall.bucket * int) list
(** The report's stall stack as [(bucket, cycles)], in {!Stall.all}
    order. The cycle counts sum to [report.cycles]. *)

val render_stall_stack : Sempe_pipeline.Timing.report -> string
(** Text table of the stall stack with per-bucket shares (zero buckets
    other than [base] are omitted). *)

val stall_stack_json : Sempe_pipeline.Timing.report -> Json.t

val render_leakage_stack :
  title:string -> total:int -> unit:string -> (string * int) list -> string
(** Text table for a leakage stack: divergent-event counts bucketed by
    hardware structure, in the stall-stack style. The caller guarantees
    the counts sum to [total] (held by construction in
    [Sempe_security.Attribution]); zero buckets are omitted, and a stack
    with no nonzero bucket renders as a one-line "no divergent ..."
    notice. [unit] names the counted thing (e.g. ["events"]). *)

val leakage_stack_json : (string * int) list -> Json.t
(** The same stack as a flat JSON object. *)

val to_json : Sempe_pipeline.Timing.report -> Json.t
(** Every counter of the report (cache signature hashes excluded) plus the
    stall stack, as one flat JSON object. *)

val render : Sempe_pipeline.Timing.report -> string
(** The run-summary text table: instructions, cycles, CPI, wall time at
    the default machine's clock, branch, drain and memory counters and
    the three miss rates. No trailing newline. *)
