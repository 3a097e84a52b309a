(** Serialized simulation checkpoints.

    A checkpoint bundles the complete state needed to resume a run and
    immediately measure it in detail:

    - the {e architectural} state from {!Sempe_core.Exec.capture} —
      registers, memory image, jbTable, register snapshots, SPM, program
      counter, instruction count;
    - the {e warm microarchitectural} state ({!Sempe_pipeline.Warm.t}) —
      cache tags/LRU and prefetchers, TAGE direction predictor, BTB, RAS
      and indirect-target predictor.

    The value is a self-contained byte string ([Marshal]-encoded, with
    the mostly-zero memory image stored sparsely and the warm state,
    which is plain data, marshaled as it is), so restoring it — possibly
    several times, possibly in other domains — always yields an
    independent deep copy: parallel measurement jobs never share mutable
    state. The bytes never leave the process that produced them:
    {!restore} trusts them, and [Marshal]'s format is tied to the
    compiler and to the payload's type, so a checkpoint is not a storage
    or wire format. *)

type t

val save : arch:Sempe_core.Exec.arch -> warm:Sempe_pipeline.Warm.t -> t
(** Serialize (deep-copy) the given state. The capture may alias a live
    session's arrays; the copy is taken here, so the session can keep
    running afterwards. *)

val restore : t -> Sempe_core.Exec.arch * Sempe_pipeline.Warm.t
(** A fresh, independent copy of the saved state. Safe to call from any
    domain, repeatedly. *)

val instructions : t -> int
(** Committed-instruction count at the checkpoint. *)

val halted : t -> bool

val size_bytes : t -> int
(** Serialized size, for telemetry. *)

val digest : t -> int
(** FNV-1a hash of the serialized payload. Two checkpoints of identical
    state have identical digests, so a save / restore / save round-trip
    can be checked for byte fidelity without exposing the encoding. *)
