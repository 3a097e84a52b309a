(** The [sempe-sim serve] daemon: a long-running simulation service.

    One accept thread plus one handler thread per connection; the
    simulations themselves run on a {!Sempe_util.Pool} of worker domains,
    so a connection is cheap and the expensive work is bounded by the
    pool size. Each connection speaks the length-prefixed JSON protocol
    of {!Frame}: a request is an object [{"id": .., "op": .., ...}] (the
    operation fields of {!Api.request_of_json}, plus the control ops
    [ping], [stats] and [shutdown]); the reply echoes ["id"] and carries
    either [{"ok": true, "cached": .., "result": ..}] or
    [{"ok": false, "error": {"code": .., "message": ..}}].

    Two content-addressed caches back the service: response bytes keyed
    by {!Api.cache_key}, and sampling checkpoint plans keyed by
    {!Api.plan_key} — a repeated sweep neither re-simulates nor re-runs
    the fast-forward pass. Every entry records the wall seconds its
    {!Api.perform} took, and eviction is cost-aware ({!Cache}): the cache
    keeps the entries that are most expensive to recompute. Identical
    in-flight requests coalesce onto one execution.

    With a [store_dir], the daemon persists both caches: a graceful
    shutdown flushes them through {!Persist} and the next start reloads
    the store, so a restarted shard answers warm — and, because the store
    holds the exact rendered response bytes, byte-identically — from its
    first request.

    Security note: the daemon fully trusts its clients. Frames are
    length-capped and parsed with the strict reader, so a malformed or
    truncated frame cannot wedge the server — but any client that can
    connect can run simulations, read statistics and shut the daemon
    down. Bind the unix socket in a directory with appropriate
    permissions; do not expose the TCP listener beyond the host. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** [unix:PATH], [tcp:HOST:PORT], or a bare path (taken as a unix
    socket). *)

val addr_to_string : addr -> string

val bind_listen : backlog:int -> addr -> Unix.file_descr
(** Bind and listen on an address: a crash-leftover unix socket file is
    replaced, a TCP listener gets [SO_REUSEADDR]. Shared with the
    {!Router}, which fronts the same protocol on the same address
    forms.
    @raise Unix.Unix_error when the address cannot be bound. *)

type config = {
  workers : int;  (** simulation pool size *)
  result_entries : int;  (** response cache capacity *)
  plan_entries : int;  (** checkpoint-plan cache capacity *)
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
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> addr

val request_stop : t -> unit
(** Ask the daemon to stop; safe from signal handlers and handler
    threads. The shutdown itself happens in {!wait} / {!stop}. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, let in-flight requests finish and
    reply, wake idle connections, join every thread, drain the pool and —
    when configured with a [store_dir] — flush both caches to disk.
    Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler or a client's
    [shutdown] op), then run {!stop}. *)

val stats_json : t -> Sempe_obs.Json.t
(** The daemon's counters, as served by the [stats] op: request/reply
    totals, cache hits/misses/evictions and cost accounting for both
    caches, entries reloaded from the persistent store
    ([disk_loaded_results] / [disk_loaded_plans]), coalesced and executed
    requests, connection counts ([handler_threads] is the number of
    connection handlers retained, which is the number of open
    connections: finished handlers are dropped as they exit) and request
    latency percentiles. *)
