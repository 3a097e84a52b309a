(** Per-cycle resource counters: at most [cap] claims per cycle.

    The counts live in a tagged ring that starts at 256 slots and doubles
    only when a request lands beyond its live window, so it is exact at
    any spread between the oldest and newest requested cycle. The window
    is anchored at a caller-supplied [floor], a cycle no later request
    may precede; the timing model derives it from the fetch and in-order
    commit cycles, neither of which ever decreases. *)

type t

val create : int -> t
(** [create cap] is an empty counter allowing [cap] claims per cycle.
    Raises [Invalid_argument] if [cap < 1]. *)

val alloc : t -> floor:int -> int -> int
(** [alloc t ~floor c] claims the earliest cycle [>= c] with fewer than
    [cap] claims and returns it. [floor] promises that no later call
    requests a cycle below it: cycles below [floor] are forgotten.
    Raises [Invalid_argument] if [c < floor] or [floor] is below the
    previous call's. *)

val slots : t -> int
(** Current ring size (256 until a request forces growth); for tests. *)
