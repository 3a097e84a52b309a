(** Per-PC profile built from timing-model probe events.

    Counts exactly, in one table per kind keyed by static pc (so the
    program bounds each table):
    - mispredicts per control-flow pc (and executions per conditional
      branch pc, for the miss-rate column);
    - DL1-missing loads per load pc;
    - drains and SPM transfer cycles per sJMP pc (each drain is attributed
      to the innermost open secure region, tracked LIFO like the
      jbTable).

    Attach with {!probe} (e.g. [Run.simulate ~sink:(Sink.of_probe
    (Profile.probe p))]) and render or export after the run. *)

type t

val create : unit -> t

val probe : t -> Sempe_pipeline.Probe.t
(** A probe that records into [t]. *)

(** Every table ranks its pcs by count, descending, then by pc,
    ascending. A pc added with weight 0 is listed, with count 0. *)

val render : ?n:int -> ?resolve:(int -> string) -> t -> string
(** Top-[n] tables (default 10). [resolve] maps a pc to its disassembled
    instruction for the pc column. *)

val to_json : ?n:int -> t -> Json.t
(** The top-[n] entries of each table (all when [n] is absent), with
    ["exact": true]. *)

val branch_mispredicts : t -> (int * int) list
(** Every [(pc, mispredicts)], ranked. *)

val load_misses : t -> (int * int) list
(** Every [(pc, DL1-missing loads)], ranked. *)

val sjmp_spm_cycles : t -> (int * int) list
(** Every [(sJMP pc, SPM transfer cycles)], ranked. *)

val uops : t -> int
(** µop events seen. *)

val drains : t -> int
(** Drain events seen. *)
