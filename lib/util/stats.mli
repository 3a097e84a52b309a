(** Ratios and summaries of a series of observations. *)

val ratio : num:int -> den:int -> float
(** [ratio ~num ~den] is [num / den] as a float, or [0.] when [den = 0]. *)

(** Streaming summary of a series of float observations. *)
module Summary : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit

  val count : t -> int
  (** Number of observations. *)

  val mean : t -> float
  (** [0.] when nothing has been observed. *)

  val percentile : float -> t -> float
  (** [percentile p t] is the nearest-rank [p]-th percentile of the
      observations, with [p] a fraction in [\[0, 1\]] (clamped): the
      sample at rank [ceil (p * n)] of the ascending order, so
      [percentile 0. t] and [percentile 1. t] are the exact min and max.
      [0.] when nothing has been observed (consistent with {!mean}). *)

  val min : t -> float
  (** [0.] when nothing has been observed (consistent with {!mean}). *)

  val max : t -> float
  (** [0.] when nothing has been observed (consistent with {!mean}). *)
end
