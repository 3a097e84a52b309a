(** Functional (architectural) execution with SeMPE semantics.

    Runs a program to [Halt], maintaining registers and memory, and streams
    one {!Sempe_pipeline.Uop.event} per committed instruction to an optional
    sink (normally the timing model).

    Under {!Sempe_hw} support, a secure branch triggers the paper's
    multi-path protocol: the branch outcome is recorded in the jbTable, the
    architectural registers are snapshotted to the SPM, the not-taken path
    executes first, the first eosJMP jumps back to the taken target, and the
    second eosJMP merges register state according to the outcome. Memory is
    never snapshotted — programs must privatize memory written under secure
    branches (the ShadowMemory pass), exactly as in the paper.

    Under {!Legacy} support the SecPrefix is ignored: secure branches
    behave as ordinary predicted branches and [Eosjmp] decodes as a NOP,
    demonstrating the ISA's backward compatibility (§IV-C). *)

type support = Legacy | Sempe_hw

(** Fault injection, used by the differential fuzzer ({!Sempe_fuzz}) to
    prove its oracles catch real protocol bugs. A fault suppresses the
    architectural effect of one SPM restore phase while keeping the
    snapshot-stack bookkeeping intact:

    - [Skip_restore]: the final eosJMP's merge/restore writes nothing, so
      the last-executed (taken) path's register values survive even when
      the branch outcome selected the other path;
    - [Skip_nt_restore]: the first eosJMP does not rewind the not-taken
      path's register writes, so NT values leak into the taken path.

    [No_fault] (the default everywhere) is the correct SeMPE protocol. *)
type fault = No_fault | Skip_restore | Skip_nt_restore

val fault_name : fault -> string
val fault_of_string : string -> fault option

type config = {
  support : support;
  mem_words : int;       (** memory size in words; the stack grows from the top *)
  max_instrs : int;      (** dynamic instruction budget; exceeding it fails *)
  spm : Sempe_mem.Spm.config;
  jbtable_entries : int;
  forgiving_oob : bool;
  (** when [true], out-of-bounds loads return 0, out-of-bounds stores are
      dropped (their cache address is clamped), and out-of-bounds
      indirect-jump targets ([Jr]/[Ret]) are wrapped into the program
      deterministically; when [false] all three fail with
      {!Out_of_bounds}. The paper's threat model assumes wrong paths do
      not fault, but synthetic wrong-path code may compute junk addresses
      and junk targets. *)
  fault : fault;
  (** injected protocol bug; [No_fault] for correct execution *)
}

val default_config : config
(** [Sempe_hw], 1 Mi words (8 MiB of simulated memory, paged: see
    {!Memory}), 200M instruction budget, Table II SPM, [No_fault]. *)

exception Out_of_bounds of { pc : int; addr : int }
exception Budget_exceeded of int

type result = {
  regs : int array;        (** architectural registers at [Halt] *)
  memory : Memory.t;       (** final memory image *)
  dyn_instrs : int;        (** committed instructions *)
  dyn_sjmps : int;         (** committed secure branches *)
  max_nesting : int;       (** deepest secure-branch nesting reached *)
  spm : Sempe_mem.Spm.t;   (** the SPM, for its transfer statistics *)
}

val run :
  ?config:config
  -> ?init_mem:(Memory.t -> unit)
  -> ?sink:(Sempe_pipeline.Uop.event -> unit)
  -> Sempe_isa.Program.t
  -> result
(** @raise Sempe_mem.Spm.Overflow or {!Jbtable.Overflow} when secure
    branches nest beyond the hardware budget.
    @raise Out_of_bounds on a wild access when [forgiving_oob] is false.
    @raise Budget_exceeded when [max_instrs] is hit. *)

(** {2 Resumable execution}

    The co-residence attacks interleave a victim with an attacker sharing
    the machine: start a session, advance it a time slice at a time, and
    let the attacker inspect the shared microarchitectural state between
    slices. *)

type session
(** A session owns a decoded micro-op cache: the program is predecoded
    once at {!start}/{!resume} into one specialized thunk per static
    instruction, so the per-step loop does threaded dispatch instead of
    re-matching the instruction constructor tree. When a sink is attached,
    commits reuse one mutable µop record per static pc — see the reuse
    contract in {!Sempe_pipeline.Uop}. *)

val start :
  ?config:config
  -> ?init_mem:(Memory.t -> unit)
  -> ?sink:(Sempe_pipeline.Uop.event -> unit)
  -> ?warm:Sempe_pipeline.Warm.t
  -> Sempe_isa.Program.t
  -> session
(** When [sink] is omitted the session runs in fast-forward mode: no µop
    events are allocated at all, which makes functional execution several
    times faster than the instrumented path.

    [warm], if given, is functionally warmed as the program executes: each
    architectural step makes exactly the {!Sempe_pipeline.Warm} calls (in
    the same order) that {!Sempe_pipeline.Timing} would make while
    consuming this session's µop stream, so a fast-forward run leaves
    caches and predictors in the state a detailed run would have. Supply
    either [sink] (detailed: the timing model trains its own warm state)
    or [warm] (fast-forward warming), not both — combining them would
    train the same tables twice per instruction. *)

val step_slice : session -> int -> bool
(** [step_slice s n] executes up to [n] further instructions; returns
    [true] once the program has halted. Raises like {!run}. *)

val halted : session -> bool
val instructions : session -> int

val finish : session -> result
(** Run to completion (if not already halted) and package the result. *)

(** {2 Architectural checkpoints}

    Sampled simulation snapshots a session at interval boundaries and
    later revives each snapshot under a detailed timing model. *)

type arch
(** The complete architectural state of a session — registers, memory,
    jbTable, register snapshots, SPM, program counter and instruction
    count — as a plain, [Marshal]-serializable value. Unwritten memory
    pages are empty arrays (see {!Memory.t}), so an unmarshaled copy
    shares no writable storage between them. The program itself is not
    included (it is immutable; pass it to {!resume}). *)

val capture : session -> arch
(** Snapshot the session's state. The capture {e aliases} the session's
    live arrays and memory pages: serialize or deep-copy it before
    stepping the session further (this is what
    {!Sempe_sampling.Checkpoint} does). *)

val arch_mem : arch -> Memory.t
val arch_with_mem : arch -> Memory.t -> arch
(** Memory-image surgery for checkpoint serializers: the memory is by far
    the largest component and mostly zero, so [Sempe_sampling.Checkpoint]
    swaps it for a sparse encoding around [Marshal]. The capture keeps
    only the memory's page table and takes its size from the config, so
    [arch_with_mem a (Memory.create 0)] is an arch with an empty table: a
    placeholder to marshal, which {!resume} rejects until the real
    memory is put back. *)

val arch_instructions : arch -> int
(** Committed-instruction count at capture time. *)

val arch_halted : arch -> bool

val resume :
  ?sink:(Sempe_pipeline.Uop.event -> unit)
  -> ?warm:Sempe_pipeline.Warm.t
  -> Sempe_isa.Program.t
  -> arch
  -> session
(** Revive a captured state as a runnable session. The session takes
    ownership of the capture's arrays (unmarshal a fresh copy per resume).
    [sink] / [warm] as in {!start}.
    @raise Invalid_argument if the capture's memory does not have the
    configured size. *)
