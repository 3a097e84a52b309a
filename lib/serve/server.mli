(** The [sempe-sim serve] daemon: a long-running simulation service.

    The daemon is a {!Listener.handler}: the {!Listener} owns the
    sockets, one handler thread per connection, the framed JSON
    envelope and the [ping]/[stats]/[shutdown] ops, and hands the daemon
    each decoded workload request. The simulations themselves run on a
    {!Sempe_util.Pool} of worker domains, so a connection is cheap and
    the expensive work is bounded by the pool size.

    One content-addressed cache backs the service: response bytes keyed
    by {!Api.cache_key}, so a repeated sweep does not re-simulate. Every
    entry records the wall seconds its {!Api.perform} took, and eviction
    is cost-aware ({!Cache}): the cache keeps the entries that are most
    expensive to recompute. A request whose response was evicted runs
    again in full, and its bytes are the same. Identical in-flight
    requests coalesce onto one execution.

    With a [store_dir], the daemon persists the cache: a graceful
    shutdown flushes it through {!Persist} and the next start reloads
    the store, so a restarted shard answers warm — and, because the store
    holds the exact rendered response bytes, byte-identically — from its
    first request. The store is tied to the executable that filled it:
    {!start} digests [Sys.executable_name] once (only when there is a
    store) and {!Persist} loads nothing from a store another build wrote,
    since that build's model may render other bytes for the same key.

    Security note: the daemon fully trusts its clients. Frames are
    length-capped and parsed with the strict reader, so a malformed or
    truncated frame cannot wedge the server — but any client that can
    connect can run simulations, read statistics and shut the daemon
    down. Bind the unix socket in a directory with appropriate
    permissions; do not expose the TCP listener beyond the host. *)

type addr = Listener.addr = Unix_sock of string | Tcp of string * int

type config = {
  workers : int;  (** simulation pool size *)
  result_entries : int;  (** response cache capacity *)
  timeout_s : float;  (** per-request reply deadline; [0.] = none *)
  max_connections : int;  (** concurrent connections; excess get [busy] *)
  max_frame : int;  (** request frame byte cap *)
  store_dir : string option;
      (** persistent cache store: reloaded on start, flushed on graceful
          shutdown; [None] (the default) serves memory-only *)
  verbose : bool;  (** per-request log lines on stderr *)
}

val default_config : config

type t

val start : ?config:config -> addr -> t
(** Bind, listen and serve. Returns once the listener is live (a client
    connecting after [start] returns will not get a connection refusal).
    With a [store_dir] it first reloads the store written by this
    executable; a store from another one loads nothing and logs one
    warning on stderr quoting the store's header and naming this
    executable's digest. An executable that cannot be read for its
    digest runs without the store (nothing loaded, nothing flushed)
    after one stderr warning.
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> addr

val request_stop : t -> unit
(** Ask the daemon to stop; safe from signal handlers and handler
    threads. The shutdown itself happens in {!wait} / {!stop}. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, let in-flight requests finish and
    reply while every connection closes after its current reply, wake
    idle connections, join every thread, drain the pool and — when
    configured with a [store_dir] — flush the cache to disk.
    Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler or a client's
    [shutdown] op), then run {!stop}. *)

val stats_json : t -> Sempe_obs.Json.t
(** The daemon's counters, as served by the [stats] op: request/reply
    totals, cache hits/misses/evictions and cost accounting, entries
    reloaded from the persistent store ([disk_loaded_results]),
    coalesced and executed requests, the listener's connection counts
    ({!Listener.counters}) and request latency percentiles. *)
