(** Paged word memory of a simulated machine.

    The address space is split into pages of {!page_size} words. A page is
    allocated on its first nonzero write; until then it reads as zero and
    costs one pointer. A machine therefore pays for the memory its program
    touches, not for its configured size (the default machine has 1 Mi
    words, and a mid-run djpeg image holds a few thousand nonzero words).

    Every accessor bounds-checks its addresses against {!length}, like
    [Array.get]/[Array.set]. Contents are the only observable: a page that
    was written and then zeroed compares {!equal} to one never written. *)

type t = private {
  words : int;  (** addressable words: addresses are [0 .. words - 1] *)
  pages : int array array;
  (** page [i] holds words [i * page_size ..]; an unwritten page is [[||]].
      Every allocated page has {!page_size} words except the last, which
      ends at [words]. The fields are visible so that the interpreter can
      inline its loads, and its stores into allocated pages; any other
      write goes through {!set} or {!blit_array}, which allocate pages. *)
}
(** Unwritten pages are the empty array rather than an alias of one shared
    zero page, so a [Marshal] round-trip or a deep copy of a memory can
    never make two unwritten pages share writable storage. *)

val page_bits : int
(** [log2 page_size]: 12. *)

val page_size : int
(** 4096 words. *)

val page_mask : int
(** [page_size - 1]: the in-page offset of address [a] is [a land page_mask]
    and its page is [a lsr page_bits]. *)

val create : int -> t
(** [create words]: all zero, no page allocated.
    @raise Invalid_argument if [words < 0]. *)

val of_pages : words:int -> int array array -> t
(** Rebuild a memory from the [pages] table of one of [words] words (an
    architectural checkpoint keeps only the table). The table is shared,
    not copied.
    @raise Invalid_argument if the table does not have the shape {!t}
    documents. *)

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument if the address is outside [0 .. length - 1]. *)

val set : t -> int -> int -> unit
(** Writing zero to an unwritten page allocates nothing.
    @raise Invalid_argument if the address is outside [0 .. length - 1]. *)

val blit_array : int array -> int -> t -> int -> int -> unit
(** [blit_array src src_pos m dst_pos len] writes
    [src.(src_pos .. src_pos + len - 1)] to addresses
    [dst_pos .. dst_pos + len - 1], like [Array.blit]. An all-zero stretch
    that lands on an unwritten page allocates nothing.
    @raise Invalid_argument if either range is out of bounds. *)

val sub : t -> int -> int -> int array
(** [sub m pos len] is a fresh array of the words at [pos .. pos + len - 1],
    like [Array.sub].
    @raise Invalid_argument if the range is out of bounds. *)

val iter_nonzero : (int -> int -> unit) -> t -> unit
(** [iter_nonzero f m] calls [f addr value] for every nonzero word, in
    ascending address order, visiting only allocated pages. *)

val equal : t -> t -> bool
(** Same length and the same word at every address. *)

val allocated_pages : t -> int
(** Number of pages holding storage (telemetry and tests). *)
