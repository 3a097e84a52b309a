(* The fleet front end: a Listener handler, like the daemon, that
   consistent-hashes each request's partition key onto one of N shards
   and relays the original frame bytes verbatim — so the reply a client
   sees is exactly the bytes the shard produced (the shard echoes the
   client's own "id", because the shard reads the client's own payload).
   The router never parses a shard's reply to a forward.

   Every exchange with a shard — a forward, a stats query, a drain, a
   health ping — runs over one of that shard's open links: an idle link
   is reused and a new one opened only when none is idle. Shard failure
   is handled at the forwarding layer: a refusal, hangup or frame error
   is retried with doubling backoff, and a shard that exhausts its
   retries is marked dead and skipped in favor of the next shard
   clockwise on the ring. A background health thread pings dead shards
   back to life. *)

module Json = Sempe_obs.Json
module Pool = Sempe_util.Pool

(* ---- the hash ring ---- *)

module Ring = struct
  (* [points] is sorted by hash; each shard contributes [replicas]
     virtual nodes so the keyspace splits evenly and removing one shard
     redistributes only that shard's arcs (~1/N of the keys) instead of
     shifting every assignment by one. *)
  type t = { shards : int; points : (int * int) array }

  let default_replicas = 128

  (* Fold the dual digests into one ring coordinate. *)
  let mix (h1, h2) = (h1 lxor (h2 * 0x9e3779b1)) land max_int

  let create ?(replicas = default_replicas) shards =
    if shards < 1 then invalid_arg "Ring.create: shards must be >= 1";
    if replicas < 1 then invalid_arg "Ring.create: replicas must be >= 1";
    let points =
      Array.init (shards * replicas) (fun i ->
          let shard = i / replicas and v = i mod replicas in
          (mix (Api.digests (Printf.sprintf "shard-%d#%d" shard v)), shard))
    in
    Array.sort compare points;
    { shards; points }

  let shards t = t.shards

  let key_hash key =
    mix (Api.digests (String.concat "," (List.map string_of_int key)))

  (* Index of the first point strictly clockwise of [h], wrapping. *)
  let successor t h =
    let n = Array.length t.points in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst t.points.(mid) <= h then go (mid + 1) hi else go lo mid
    in
    let i = go 0 n in
    if i = n then 0 else i

  let assign t key = snd t.points.(successor t (key_hash key))

  let order t key =
    let n = Array.length t.points in
    let start = successor t (key_hash key) in
    let seen = Array.make t.shards false in
    let out = ref [] and found = ref 0 in
    let i = ref 0 in
    while !found < t.shards && !i < n do
      let shard = snd t.points.((start + !i) mod n) in
      if not seen.(shard) then begin
        seen.(shard) <- true;
        out := shard :: !out;
        incr found
      end;
      incr i
    done;
    List.rev !out
end

(* ---- configuration ---- *)

type config = {
  replicas : int;
  retries : int;
  backoff_s : float;
  health_period_s : float;
  max_connections : int;
  max_frame : int;
  verbose : bool;
}

let default_config =
  {
    replicas = Ring.default_replicas;
    retries = 2;
    backoff_s = 0.05;
    health_period_s = 0.5;
    max_connections = 64;
    max_frame = Frame.max_len_default;
    verbose = false;
  }

type shard = {
  s_addr : Listener.addr;
  mutable s_alive : bool;
  mutable s_forwarded : int;
  mutable s_idle : Unix.file_descr list;
  (* open links to the shard that no exchange is using *)
}

type t = {
  cfg : config;
  listener : Listener.t;
  ring : Ring.t;
  shards : shard array;
  m : Mutex.t;
  mutable forwarded : int;
  mutable retried : int;
  mutable failovers : int;
  mutable errors : int;
  mutable health_thread : Thread.t option;
}

let addr t = Listener.addr t.listener

let request_stop t = Listener.request_stop t.listener

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* ---- forwarding ---- *)

let close_quietly fd = try Unix.close fd with _ -> ()

(* One round trip with a shard: [payload] out, the shard's reply bytes
   back. An idle link is taken if there is one, else a connection is
   opened, so a shard never holds more links than its peak number of
   concurrent exchanges. A link that returned a reply goes back on the
   idle list (or is closed once the router is stopping); a link whose
   exchange raised is closed and the failure returned as [Error]. A
   failed idle link may only be stale — the shard restarted since the
   link was opened — so it earns one fresh connection before the
   exchange counts as failed. *)
let exchange t shard payload =
  let over fd =
    let failed msg =
      close_quietly fd;
      Error msg
    in
    match
      Frame.write fd payload;
      Frame.read ~max_len:t.cfg.max_frame fd
    with
    | Some reply ->
      locked t (fun () ->
          if Listener.stopping t.listener then close_quietly fd
          else shard.s_idle <- fd :: shard.s_idle);
      Ok reply
    | None -> failed "shard closed the connection"
    | exception Frame.Frame_error msg -> failed msg
    | exception Unix.Unix_error (e, _, _) -> failed (Unix.error_message e)
  in
  let fresh () =
    match Listener.dial shard.s_addr with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connect: %s" (Unix.error_message e))
    | fd -> over fd
  in
  let idle =
    locked t (fun () ->
        match shard.s_idle with
        | fd :: rest ->
          shard.s_idle <- rest;
          Some fd
        | [] -> None)
  in
  match idle with
  | None -> fresh ()
  | Some fd -> ( match over fd with Ok _ as ok -> ok | Error _ -> fresh ())

let forward t key payload =
  let ring_order = Ring.order t.ring key in
  (* Prefer live shards, in ring order; fall back to trying the dead
     ones anyway (the health thread may simply not have noticed a
     revival yet, and a request should not fail while any shard can
     serve it). *)
  let alive, dead =
    List.partition (fun i -> locked t (fun () -> t.shards.(i).s_alive)) ring_order
  in
  let rec try_shards ~first = function
    | [] -> Error ("unavailable", "no shard could serve the request")
    | idx :: rest ->
      let shard = t.shards.(idx) in
      if not first then locked t (fun () -> t.failovers <- t.failovers + 1);
      let rec attempt n backoff =
        match exchange t shard payload with
        | Ok reply ->
          locked t (fun () ->
              shard.s_alive <- true;
              shard.s_forwarded <- shard.s_forwarded + 1;
              t.forwarded <- t.forwarded + 1);
          Ok reply
        | Error _ when n < t.cfg.retries ->
          locked t (fun () -> t.retried <- t.retried + 1);
          Thread.delay backoff;
          attempt (n + 1) (backoff *. 2.)
        | Error msg ->
          locked t (fun () -> shard.s_alive <- false);
          if t.cfg.verbose then
            Printf.eprintf "[router] shard %s down: %s\n%!"
              (Listener.addr_to_string shard.s_addr)
              msg;
          Error ("unavailable", msg)
      in
      (match attempt 1 t.cfg.backoff_s with
       | Ok reply -> Ok reply
       | Error _ -> try_shards ~first:false rest)
  in
  try_shards ~first:true (alive @ dead)

(* ---- fleet control ---- *)

let control_doc op = Json.to_string (Json.Obj [ ("op", Json.Str op) ])

let drain_fleet t =
  let doc = control_doc "shutdown" in
  Array.iter (fun shard -> ignore (exchange t shard doc)) t.shards

(* ---- stats ---- *)

let shard_cache_counts t shard =
  match exchange t shard (control_doc "stats") with
  | Error _ -> None
  | Ok reply -> (
    match Json.of_string_strict reply with
    | exception Json.Parse_error _ -> None
    | doc -> (
      match Option.bind (Json.member "result" doc) (Json.member "result_cache") with
      | Some rc -> (
        match (Json.member "hits" rc, Json.member "misses" rc) with
        | Some (Json.Int h), Some (Json.Int m) -> Some (h, m)
        | _ -> None)
      | None -> None))

let stats_json t =
  (* Sum the fleet's result-cache counters so a load generator pointed
     at the router reads hit rates exactly as it would against a single
     shard. Queried live; a dead shard contributes nothing. *)
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun shard ->
      if locked t (fun () -> shard.s_alive) then
        match shard_cache_counts t shard with
        | Some (h, m) ->
          hits := !hits + h;
          misses := !misses + m
        | None -> ())
    t.shards;
  let c = Listener.counters t.listener in
  locked t (fun () ->
      Json.Obj
        [
          ("role", Json.Str "router");
          ("requests", Json.Int c.requests);
          ("forwarded", Json.Int t.forwarded);
          ("retried", Json.Int t.retried);
          ("failovers", Json.Int t.failovers);
          ("errors", Json.Int t.errors);
          ( "shards",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun s ->
                      Json.Obj
                        [
                          ("addr", Json.Str (Listener.addr_to_string s.s_addr));
                          ("alive", Json.Bool s.s_alive);
                          ("forwarded", Json.Int s.s_forwarded);
                        ])
                    t.shards)) );
          ( "result_cache",
            Json.Obj [ ("hits", Json.Int !hits); ("misses", Json.Int !misses) ] );
          ("connections", c.connections);
        ])

(* ---- the listener's handler ---- *)

let handler t =
  {
    Listener.serve =
      (fun ~t0:_ req payload ->
        let key = Api.route_key req in
        match forward t key payload with
        | Ok reply ->
          if t.cfg.verbose then
            Printf.eprintf "[router] %s -> shard %d\n%!"
              (Json.to_string (Api.request_to_json req))
              (Ring.assign t.ring key);
          Relay reply
        | Error (code, message) -> Err (code, message));
    stats = (fun () -> stats_json t);
    (* Graceful fleet drain: every shard finishes its in-flight work,
       flushes its store and exits; then the router follows. *)
    drain = (fun () -> drain_fleet t);
    account =
      (fun ~t0:_ -> function
        | Listener.Err _ -> locked t (fun () -> t.errors <- t.errors + 1)
        | _ -> ());
  }

(* Revive dead shards: a cheap ping over a link. Live shards are left
   alone — forwarding itself discovers failures faster than a poll
   would. *)
let health_loop t =
  let ping_doc = control_doc "ping" in
  while not (Listener.stopping t.listener) do
    Array.iter
      (fun shard ->
        if not (locked t (fun () -> shard.s_alive)) then
          match exchange t shard ping_doc with
          | Ok _ ->
            locked t (fun () -> shard.s_alive <- true);
            if t.cfg.verbose then
              Printf.eprintf "[router] shard %s back up\n%!"
                (Listener.addr_to_string shard.s_addr)
          | Error _ -> ())
      t.shards;
    (* Sleep in short slices so a stop request is honored promptly. *)
    let deadline = Pool.now_s () +. t.cfg.health_period_s in
    while (not (Listener.stopping t.listener)) && Pool.now_s () < deadline do
      Thread.delay 0.02
    done
  done

(* ---- lifecycle ---- *)

let start ?(config = default_config) ~shards address =
  if shards = [] then invalid_arg "Router.start: no shards";
  let listener =
    Listener.create ~max_connections:config.max_connections
      ~max_frame:config.max_frame address
  in
  let t =
    {
      cfg = config;
      listener;
      ring = Ring.create ~replicas:config.replicas (List.length shards);
      shards =
        Array.of_list
          (List.map
             (fun a ->
               { s_addr = a; s_alive = true; s_forwarded = 0; s_idle = [] })
             shards);
      m = Mutex.create ();
      forwarded = 0;
      retried = 0;
      failovers = 0;
      errors = 0;
      health_thread = None;
    }
  in
  Listener.serve listener (handler t);
  t.health_thread <- Some (Thread.create health_loop t);
  t

let stop t =
  if Listener.stop t.listener then begin
    (match t.health_thread with Some th -> Thread.join th | None -> ());
    (* Every exchange is over, and none can pool a link again: close the
       idle ones, which the shards see as a client hanging up. *)
    locked t (fun () ->
        Array.iter
          (fun shard ->
            List.iter close_quietly shard.s_idle;
            shard.s_idle <- [])
          t.shards)
  end

let wait t =
  Listener.await_stop t.listener;
  stop t
