(** Versioned on-disk store for a shard's response cache.

    A shard flushes its content-addressed cache here on graceful
    shutdown and reloads it on start, so a restarted fleet serves warm
    (and byte-identical — the store holds the exact rendered responses)
    from its first request. The store directory holds one file,
    [responses.v1.jsonl]: a header line carrying the store kind and
    version, then one JSON object per cached response
    ([{"key":[..],"cost_s":..,"response":..}]), newest first. The
    response cache is JSON end to end, so its persistent form is too,
    and it is read back with the strict JSON parser.

    Writes are atomic (temp file + rename): a crash mid-flush leaves the
    previous store intact. Loading is forgiving: a missing file is an
    empty store; an unreadable file, a wrong version or a corrupt entry
    is skipped with a warning, never a startup failure — the store is a
    warm-start optimization, not a correctness dependency. *)

type loaded = {
  responses : (int list * Sempe_obs.Json.t * float) list;
      (** (cache key, rendered response, recompute cost seconds),
          newest first *)
  warnings : string list;
      (** anything skipped during load, for the daemon's log *)
}

val save :
  dir:string -> responses:(int list * Sempe_obs.Json.t * float) list -> unit
(** Flush the cache (entries newest first, as {!Cache.to_list} dumps
    them) to [dir], creating the directory if needed. The file is
    replaced atomically.
    @raise Invalid_arg if [dir] exists and is not a directory.
    @raise Sys_error / [Unix.Unix_error] on I/O failure. *)

val load : dir:string -> loaded
(** Read the store back. A missing directory or file yields an empty
    store with no warnings; malformed content yields whatever loaded
    cleanly plus one warning per skipped file or entry. A line that
    damage did not reach loads as it was saved. Never raises. *)
