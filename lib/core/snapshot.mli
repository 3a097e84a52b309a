(** ArchRS — architectural register snapshots (§IV-F, Figure 6).

    One frame per nested SecBlock, stacked in step with the jbTable. A frame
    holds the register state captured before entering the SecBlock, the
    state captured after the NT path, and the NT-Modified and T-Modified
    vectors that decide which values the restore phase writes back. Each
    vector is one [int] mask with bit [r] for register [r] (the 48
    registers of {!Sempe_isa.Reg} fit in one word). The nesting level is
    the frame's SPM offset.

    Frames are pooled per nesting depth and reused across SecBlocks, so
    entering and leaving a region allocates nothing after the deepest
    nesting level has been visited once. *)

(** Which path the innermost SecBlock is currently executing. *)
type phase = Nt_path | T_path

type t

val create : unit -> t

val depth : t -> int

val push : t -> regs:int array -> outcome:bool -> unit
(** Enter a SecBlock: capture [regs] (a register file of
    [Sempe_isa.Reg.count] values) as the pre-state. The new frame starts
    in {!Nt_path}. *)

val current_phase : t -> phase
(** @raise Invalid_argument when no frame is open. *)

val note_write : t -> Sempe_isa.Reg.t -> unit
(** Record that the executing path wrote a register. No-op outside any
    SecBlock. *)

val end_nt_path : t -> regs:int array -> int
(** First eosJMP: capture the NT state, restore [regs] (in place) to the
    pre-state for registers the NT path modified, and switch to {!T_path}.
    Returns the number of NT-modified registers (the SPM transfer size). *)

val finish : t -> regs:int array -> int
(** Second eosJMP: merge the correct values into [regs] according to the
    frame's outcome and modified vectors, pop the frame, and propagate the
    modified-register union into the parent frame's current vector (an
    inner SecBlock's restore writes registers during the parent's path).
    Returns the size of the modified union (the restore transfer reads every
    register modified in at least one path, regardless of outcome, so the
    restore time is secret-independent). *)
