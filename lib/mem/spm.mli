(** Scratchpad memory for ArchRS register snapshots (§IV-F, Figure 6).

    The SPM holds up to [max_snapshots] snapshot slots, one per nested
    secure branch; the nesting level is the slot offset. Each slot stores
    two architectural register states (pre-SecBlock and post-NT-path) plus
    the two modified-bit vectors. Transfers move [throughput_bytes] per
    cycle (Table II: 64 B/cycle, 216KB, 30 snapshots). *)

type config = {
  max_snapshots : int;      (** default 30 *)
  snapshot_bytes : int;     (** bytes per full snapshot slot, default 7392 *)
  throughput_bytes : int;   (** bytes moved per cycle, default 64 *)
  arch_regs : int;          (** registers per state, default 48 *)
}

val default_config : config

exception Overflow
(** Raised when a snapshot is pushed beyond [max_snapshots] — the paper
    leaves the policy to an exception handler; the simulator surfaces it. *)

type t

val create : ?config:config -> unit -> t

val depth : t -> int
(** Number of live snapshot slots (current secure-branch nesting). *)

val high_water : t -> int
(** Deepest nesting reached since creation. *)

val push_full_save : t -> int
(** Enter a secure block: claim the next slot and save all architectural
    registers. Returns the transfer cycles charged.
    @raise Overflow when the SPM is exhausted. *)

val save_modified : t -> modified:int -> int
(** Save [modified] registers of the current slot's second state (after the
    NT path). Returns transfer cycles. *)

val read_modified : t -> modified:int -> int
(** Read back [modified] registers from the current slot without releasing
    it (the restore-to-pre-state transfer at the first eosJMP). Returns
    transfer cycles. *)

val restore : t -> modified_union:int -> int
(** Exit a secure block: read back every register modified in at least one
    path (the paper always reads them, even when overwritten by themselves,
    to keep restore time secret-independent), release the slot, and return
    transfer cycles. *)

val bytes_per_reg : t -> int

val bytes_moved : t -> int
(** Bytes moved by every transfer since creation. *)
