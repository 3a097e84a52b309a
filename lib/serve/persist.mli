(** Versioned on-disk store for a shard's response cache.

    A shard flushes its content-addressed cache here on graceful
    shutdown and reloads it on start, so a restarted fleet serves warm
    (and byte-identical — the store holds the exact rendered responses)
    from its first request. The store directory holds one file,
    [responses.v1.jsonl]: a header line carrying the store kind, its
    version and the [model] that filled it, then one JSON object per
    cached response ([{"key":[..],"cost_s":..,"response":..}]), newest
    first. The response cache is JSON end to end, so its persistent form
    is too, and it is read back with the strict JSON parser.

    [model] is a digest of the executable that rendered the responses
    ({!Server} passes [Digest.file Sys.executable_name] in hex). A cache
    key does not cover the timing model, so a store only loads into the
    model that wrote it: a store whose header names another model, or
    none, loads no entry.

    Writes are atomic (temp file + rename): a crash mid-flush leaves the
    previous store intact. Loading is forgiving: a missing file is an
    empty store; an unreadable file, a wrong version or model or a
    corrupt entry is skipped with a warning, never a startup failure —
    the store is a warm-start optimization, not a correctness
    dependency. *)

type loaded = {
  responses : (int list * Sempe_obs.Json.t * float) list;
      (** (cache key, rendered response, recompute cost seconds),
          newest first *)
  warnings : string list;
      (** anything skipped during load, for the daemon's log *)
}

val save :
  dir:string ->
  model:string ->
  responses:(int list * Sempe_obs.Json.t * float) list ->
  unit
(** Flush the cache (entries newest first, as {!Cache.to_list} dumps
    them) to [dir] under a header naming [model], creating the directory
    if needed. The file is replaced atomically.
    @raise Invalid_arg if [dir] exists and is not a directory.
    @raise Sys_error / [Unix.Unix_error] on I/O failure. *)

val load : dir:string -> model:string -> loaded
(** Read the store back. A missing directory or file yields an empty
    store with no warnings; a header that is not [model]'s (another
    model, none, another kind or version) yields no entry and one
    warning quoting that header and naming [model]; malformed content yields whatever
    loaded cleanly plus one warning per skipped file or entry. A line
    that damage did not reach loads as it was saved. Never raises. *)
