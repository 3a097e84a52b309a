(** Saturating counter tables: TAGE's bimodal base. *)

type t
(** A table of [n]-bit saturating up/down counters. *)

val create : entries:int -> bits:int -> t
(** All counters start at the weakly-not-taken midpoint. *)

val entries : t -> int

val taken : t -> int -> bool
(** [taken t i] is the direction encoded by counter [i] (msb set). *)

val train : t -> int -> bool -> unit
(** Saturating increment (taken) or decrement (not taken). *)

val reset : t -> unit

val signature : t -> int
(** Order-dependent hash of all counter values. *)
