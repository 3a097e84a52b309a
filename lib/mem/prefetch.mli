(** Hardware prefetchers of the baseline model (Table II): a per-PC stride
    prefetcher in front of the L1 data cache and a miss-stream prefetcher in
    front of the L2. Each writes its line-aligned candidate byte addresses
    into an internal buffer and returns the count, so the once-per-access
    hot path allocates nothing. *)

module Stride : sig
  type t

  val create : ?entries:int -> ?degree:int -> unit -> t
  (** [entries] stride-table entries (default 64), [degree] lines prefetched
      per confident access (default 1). *)

  val observe : t -> pc:int -> addr:int -> int
  (** [observe t ~pc ~addr] trains the table on a demand access by the load
      or store at [pc] to byte address [addr] and returns the number of
      prefetch candidates written to the buffer (0 until the stride is
      confident and non-zero; read them back with [candidate]). *)

  val candidate : t -> int -> int
  (** [candidate t i] is the [i]th candidate of the last [observe] that
      returned a count > [i]. *)
end

module Stream : sig
  type t

  val create : ?streams:int -> ?degree:int -> ?line_bytes:int -> unit -> t
  (** [streams] concurrent streams tracked (default 8), [degree] lines
      prefetched ahead (default 2). *)

  val observe_miss : t -> addr:int -> int
  (** Train on an L2 miss; returns the number of next-line prefetch
      candidates written to the buffer when the miss extends a detected
      ascending stream (read them back with [candidate]). *)

  val candidate : t -> int -> int
end
