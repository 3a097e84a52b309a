(** Generic set-associative cache with true-LRU replacement.

    Models presence only (which lines are resident), not data contents: the
    functional interpreter holds the actual memory values, the cache decides
    hit or miss for the timing model and exposes its set contents for the
    prime+probe attacker. *)

type config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
}

type t

type outcome = Hit | Miss

val create : config -> t

val config : t -> config
val num_sets : t -> int

val access : t -> addr:int -> write:bool -> outcome
(** Demand access to the byte address [addr]: updates LRU, fills on miss,
    counts the access (and the write, miss and eviction it makes). *)

val prefetch_fill : t -> addr:int -> bool
(** Install the line for [addr] without counting a demand access. Returns
    [true] if the line was newly installed (i.e. it was absent); such a
    fill counts in {!prefetch_fills} (and in {!evictions} if it displaced
    a valid line). *)

val probe : t -> addr:int -> bool
(** Non-destructive presence check (no LRU update, nothing counted). *)

val set_index : t -> addr:int -> int
val resident_tags : t -> int -> int list
(** [resident_tags t set] lists valid tags in [set], MRU first. Used by the
    prime+probe attacker to read out eviction patterns. *)

val flush : t -> unit
(** Invalidate all lines; the counts are kept. *)

(** Event counts since {!create}. *)

val accesses : t -> int
(** Demand accesses ({!access} calls). *)

val misses : t -> int
(** Demand accesses that missed. *)

val writes : t -> int
(** Demand accesses with [~write:true]. *)

val prefetch_fills : t -> int
(** Lines {!prefetch_fill} installed. *)

val evictions : t -> int
(** Valid lines replaced by a demand miss or a prefetch fill. *)

val miss_rate : t -> float
(** [misses / accesses], or [0.] before the first access. *)

val signature : t -> int
(** Order-dependent hash of the resident tags {e and} their per-set LRU
    recency ranking (an attacker-visible summary of cache state). Two
    caches holding the same lines in a different replacement order hash
    differently, so warm-state fidelity checks catch recency drift. *)
