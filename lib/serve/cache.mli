(** Bounded content-addressed cache with cost-aware (GreedyDual)
    eviction and hit/miss/eviction counters.

    The daemon keeps one of these: (program fingerprint, request config)
    → rendered report. Keys are compared structurally
    (the daemon uses lists of independent digests — see
    {!Api.cache_key} — so a single unlucky hash collision cannot alias
    two requests), values are opaque.

    Every entry records the wall-clock cost of recomputing it (seconds
    of {!Api.perform}); when the cache is full, eviction removes the
    entry whose loss costs the least to repair, not simply the least
    recently used one. The policy is GreedyDual: an entry's credit is
    [l + cost] where [l] is a global inflation value; a hit re-credits
    the entry at the current [l], an eviction removes the minimum-credit
    entry (ties broken toward the least recently used) and advances [l]
    to the evicted credit, aging everything that merely sits resident.
    With uniform costs every credit ties and the policy degenerates to
    exact LRU.

    Not thread-safe: the daemon serializes access under its own lock. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument if [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency, re-credits it at the
    current inflation value and increments the hit counter; a miss
    increments the miss counter. *)

val add : ?cost:float -> ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or overwrite, refreshing recency and cost). [cost] is the
    wall-clock seconds recomputing the value would take (default [0.];
    negative or NaN costs are clamped to [0.]). When the cache is full,
    the minimum-credit entry is evicted first — the least valuable
    cost-seconds, not necessarily the least recent entry. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Like {!find} but without touching recency, credit or the counters. *)

val length : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int

val cost_evicted_s : ('k, 'v) t -> float
(** Total recompute cost (seconds) thrown away by evictions so far —
    the quantity the eviction policy minimizes. *)

val total_cost_s : ('k, 'v) t -> float
(** Sum of the resident entries' recompute costs (seconds): the value
    currently protected by the cache. *)

val keys_newest_first : ('k, 'v) t -> 'k list
(** Keys in recency order, most recently used first. For tests and
    introspection. *)

val to_list : ('k, 'v) t -> ('k * 'v * float) list
(** Entries in recency order, most recently used first, with their
    recorded costs — what {!Persist} flushes to disk on shutdown. *)
