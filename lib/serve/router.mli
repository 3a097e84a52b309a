(** The [sempe-sim router] front end: one address for a fleet of
    [serve] shards.

    The router is a {!Listener.handler}, like the daemon, so it speaks
    the same framed JSON protocol and is a drop-in replacement for a
    shard from a client's point of view. Workload requests are
    consistent-hashed by {!Api.route_key} onto a shard and the original
    frame bytes relayed verbatim both ways, so the reply is byte-for-byte
    what that shard produced (and therefore byte-identical to the batch
    CLI, at any shard count). Identical requests always land on the same
    shard, keeping the per-shard caches and request coalescing as
    effective as a single daemon's.

    Placement uses a consistent-hash ring ({!Ring}) with virtual nodes:
    adding or removing one shard remaps only ~1/N of the keyspace.

    The router keeps open links to each shard and reuses them: an
    exchange (a forward, a [stats] query, a drain, a health ping) takes
    an idle link or dials one ({!Listener.dial}), and a link that
    returned a reply goes back on the shard's idle list, so a shard
    never holds more of the router's links than its peak number of
    concurrent exchanges. A link whose exchange fails is closed. A
    failed idle link may only be stale (the shard restarted since), so
    it gets one fresh connection within the same attempt. An attempt
    that still fails, including one to a host that does not resolve, is
    retried with doubling backoff; a shard that exhausts its retries is
    marked dead and the request fails over to the next shard clockwise
    on the ring (losing only cache warmth, never correctness). A health
    thread pings dead shards back into rotation.

    Control ops are fleet-level: [ping] answers locally, [stats]
    reports routing counters plus the fleet's summed result-cache
    hits/misses (so {!Loadgen} computes hit rates against a router
    unchanged), and [shutdown] performs a graceful fleet drain — every
    shard finishes in-flight work, flushes its persistent store and
    exits, then the router follows. *)

(** The consistent-hash ring, exposed for property tests: assignment is
    a pure function of the key and the shard count. *)
module Ring : sig
  type t

  val default_replicas : int
  (** Virtual nodes per shard (128): enough that the largest shard arc
      stays within a few percent of fair share. *)

  val create : ?replicas:int -> int -> t
  (** [create n] builds the ring for shards [0 .. n-1].
      @raise Invalid_argument if [n < 1] or [replicas < 1]. *)

  val shards : t -> int

  val assign : t -> int list -> int
  (** The shard owning a key (a {!Api.route_key} digest list). *)

  val order : t -> int list -> int list
  (** All shards in failover order for a key: {!assign} first, then
      each next distinct shard clockwise. Every shard index appears
      exactly once. *)
end

type config = {
  replicas : int;  (** virtual nodes per shard on the ring *)
  retries : int;  (** attempts per shard before failover *)
  backoff_s : float;  (** delay before the first retry; doubles *)
  health_period_s : float;  (** dead-shard ping interval *)
  max_connections : int;  (** concurrent client connections *)
  max_frame : int;  (** frame byte cap, both directions *)
  verbose : bool;  (** routing decisions and shard state on stderr *)
}

val default_config : config

type t

val start : ?config:config -> shards:Listener.addr list -> Listener.addr -> t
(** Bind [address] and route to [shards] (all initially presumed
    alive). Returns once the listener is live.
    @raise Invalid_argument on an empty shard list.
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> Listener.addr

val request_stop : t -> unit
(** Ask the router to stop; safe from signal handlers. The shutdown
    itself happens in {!wait} / {!stop}. Does not touch the shards: the
    client-visible [shutdown] op drains them first. *)

val stop : t -> unit
(** Graceful shutdown of the router itself: stop accepting, let
    in-flight forwards finish and reply (waiting up to 600 s) while
    every connection closes after its current reply, join every thread,
    close the idle shard links. Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler or a
    client's [shutdown] op), then run {!stop}. *)

val stats_json : t -> Sempe_obs.Json.t
(** The router's counters, as served by the [stats] op: totals for
    requests, forwards, retries, failovers and error replies (bad-frame
    included); per-shard address / liveness / forward counts; the
    fleet's summed result-cache hits and misses (queried live from each
    live shard); and the listener's connection counts
    ({!Listener.counters}). *)
