module Json = Sempe_obs.Json
module Stats = Sempe_util.Stats
module Pool = Sempe_util.Pool

type addr = Listener.addr = Unix_sock of string | Tcp of string * int

type config = {
  workers : int;
  result_entries : int;
  timeout_s : float;
  max_connections : int;
  max_frame : int;
  store_dir : string option;
  verbose : bool;
}

let default_config =
  {
    workers = 2;
    result_entries = 128;
    timeout_s = 300.;
    max_connections = 64;
    max_frame = Frame.max_len_default;
    store_dir = None;
    verbose = false;
  }

(* One coalescing slot per distinct in-flight request: the first arrival
   creates the slot and submits the job, later identical requests just
   poll the shared promise. [promise] is [None] for the moment between
   slot creation and [Pool.submit] returning (on a size-1 pool that spans
   the whole execution, which runs inline). The settled value carries the
   job's wall seconds so the cache can record the recompute cost. *)
type inflight = {
  mutable promise : (Json.t * float, string) result Pool.promise option;
}

type t = {
  cfg : config;
  listener : Listener.t;
  pool : Pool.t;
  m : Mutex.t;
  results : (int list, Json.t) Cache.t;
  inflight : (int list, inflight) Hashtbl.t;
  latency : Stats.Summary.t;
  mutable ok_replies : int;
  mutable error_replies : int;
  mutable timeouts : int;
  mutable coalesced : int;
  mutable executed : int;
  mutable disk_loaded_results : int;
}

let addr t = Listener.addr t.listener

let request_stop t = Listener.request_stop t.listener

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let stats_json t =
  let c = Listener.counters t.listener in
  locked t (fun () ->
      let pct q = Stats.Summary.percentile q t.latency in
      Json.Obj
        [
          ("requests", Json.Int c.requests);
          ("ok", Json.Int t.ok_replies);
          ("errors", Json.Int t.error_replies);
          ("timeouts", Json.Int t.timeouts);
          ("executed", Json.Int t.executed);
          ("coalesced", Json.Int t.coalesced);
          ("disk_loaded_results", Json.Int t.disk_loaded_results);
          ( "result_cache",
            Json.Obj
              [
                ("entries", Json.Int (Cache.length t.results));
                ("capacity", Json.Int (Cache.capacity t.results));
                ("hits", Json.Int (Cache.hits t.results));
                ("misses", Json.Int (Cache.misses t.results));
                ("evictions", Json.Int (Cache.evictions t.results));
                ("cost_evicted_s", Json.Float (Cache.cost_evicted_s t.results));
                ("total_cost_s", Json.Float (Cache.total_cost_s t.results));
              ] );
          ("connections", c.connections);
          ("in_flight", Json.Int c.in_flight);
          ("max_in_flight", Json.Int c.max_in_flight);
          ( "latency_s",
            Json.Obj
              [
                ("count", Json.Int (Stats.Summary.count t.latency));
                ("mean", Json.Float (Stats.Summary.mean t.latency));
                ("p50", Json.Float (pct 0.5));
                ("p95", Json.Float (pct 0.95));
                ("p99", Json.Float (pct 0.99));
                ("max", Json.Float (Stats.Summary.max t.latency));
              ] );
        ])

(* ---- request execution ---- *)

let finalize t key entry r =
  locked t (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some e when e == entry ->
        Hashtbl.remove t.inflight key;
        (match r with
         | Ok (json, dt) -> Cache.add ~cost:dt t.results key json
         | Error _ -> ())
      | _ -> ())

let poll_entry t key entry ~t0 =
  let deadline =
    if t.cfg.timeout_s > 0. then t0 +. t.cfg.timeout_s else infinity
  in
  let rec go () =
    let promise = locked t (fun () -> entry.promise) in
    let settled =
      match promise with
      | None -> None
      | Some p -> (
        try Pool.peek p with Pool.Shutdown -> Some (Error "shutting down"))
    in
    match settled with
    | Some r ->
      finalize t key entry r;
      (match r with
       | Ok (json, _) -> Listener.Ok_result (json, false)
       | Error msg -> Listener.Err ("failed", msg))
    | None ->
      if Pool.now_s () > deadline then begin
        (* The execution keeps running and will be adopted into the cache
           by the next request for the same key — only this reply gives
           up. *)
        locked t (fun () -> t.timeouts <- t.timeouts + 1);
        Listener.Err
          ( "timeout",
            Printf.sprintf "no result within %.1fs (request still running)"
              t.cfg.timeout_s )
      end
      else begin
        Thread.delay 0.002;
        go ()
      end
  in
  go ()

let serve_request t req ~t0 =
  match Api.cache_key req with
  | exception e -> Listener.Err ("failed", Printexc.to_string e)
  | key -> (
    let action =
      locked t (fun () ->
          match Cache.find t.results key with
          | Some json -> `Hit json
          | None -> (
            match Hashtbl.find_opt t.inflight key with
            | Some entry ->
              t.coalesced <- t.coalesced + 1;
              `Join entry
            | None ->
              let entry = { promise = None } in
              Hashtbl.replace t.inflight key entry;
              t.executed <- t.executed + 1;
              `Exec entry))
    in
    match action with
    | `Hit json -> Listener.Ok_result (json, true)
    | `Join entry -> poll_entry t key entry ~t0
    | `Exec entry ->
      (* Inner parallelism stays at 1: concurrency comes from serving
         many requests on the pool, not from nesting domain pools per
         request (the documents are worker-count-independent anyway).
         The job times its own [Api.perform] call: that wall time is the
         entry's recompute cost, which cost-aware eviction minimizes the
         loss of. *)
      let job () =
        let jt0 = Pool.now_s () in
        match Api.perform ~workers:1 req with
        | json -> Ok (json, Pool.now_s () -. jt0)
        | exception Pool.Shutdown -> Error "shutting down"
        | exception e -> Error (Printexc.to_string e)
      in
      let p = Pool.submit t.pool job in
      locked t (fun () -> entry.promise <- Some p);
      poll_entry t key entry ~t0)

(* ---- the listener's handler ---- *)

let handler t =
  {
    Listener.serve =
      (fun ~t0 req _payload ->
        let reply = serve_request t req ~t0 in
        if t.cfg.verbose then
          Printf.eprintf "[serve] %s -> %s in %.3fs\n%!"
            (Json.to_string (Api.request_to_json req))
            (match reply with
             | Ok_result (_, true) -> "hit"
             | Err (code, _) -> code
             | _ -> "ok")
            (Pool.now_s () -. t0);
        reply);
    stats = (fun () -> stats_json t);
    drain = ignore;
    account =
      (fun ~t0 reply ->
        locked t (fun () ->
            Stats.Summary.observe t.latency (Pool.now_s () -. t0);
            match reply with
            | Err _ -> t.error_replies <- t.error_replies + 1
            | _ -> t.ok_replies <- t.ok_replies + 1));
  }

(* ---- lifecycle ---- *)

let start ?(config = default_config) address =
  let listener =
    Listener.create ~max_connections:config.max_connections
      ~max_frame:config.max_frame address
  in
  let t =
    {
      cfg = config;
      listener;
      pool = Pool.create ~workers:config.workers ();
      m = Mutex.create ();
      results = Cache.create ~capacity:config.result_entries;
      inflight = Hashtbl.create 16;
      latency = Stats.Summary.create ();
      ok_replies = 0;
      error_replies = 0;
      timeouts = 0;
      coalesced = 0;
      executed = 0;
      disk_loaded_results = 0;
    }
  in
  (* Warm start: reload whatever the previous run flushed. Entries go in
     oldest-first so the cache rebuilds the recorded recency order (and,
     should capacities have shrunk, evicts the stalest first). No client
     can connect yet, so no lock is needed. *)
  (match config.store_dir with
   | None -> ()
   | Some dir ->
     let { Persist.responses; warnings } = Persist.load ~dir in
     List.iter (Printf.eprintf "[serve] store: %s\n%!") warnings;
     List.iter
       (fun (key, json, cost) ->
         Cache.add ~cost t.results key json;
         t.disk_loaded_results <- t.disk_loaded_results + 1)
       (List.rev responses);
     if config.verbose then
       Printf.eprintf "[serve] store: loaded %d responses from %s\n%!"
         t.disk_loaded_results dir);
  Listener.serve listener (handler t);
  t

let stop t =
  (* In-flight requests get the per-request timeout, with slack for the
     reply, to finish before their connections are woken. *)
  let grace_s = if t.cfg.timeout_s > 0. then Some (t.cfg.timeout_s +. 10.) else None in
  if Listener.stop ?grace_s t.listener then begin
    Pool.shutdown ~drain:true t.pool;
    (* Every thread is joined and the pool drained: the cache is
       quiescent, flush it. A failed flush must not turn a graceful
       shutdown into a crash — the store is an optimization. *)
    match t.cfg.store_dir with
    | None -> ()
    | Some dir -> (
      try Persist.save ~dir ~responses:(Cache.to_list t.results)
      with e ->
        Printf.eprintf "[serve] store flush to %s failed: %s\n%!" dir
          (Printexc.to_string e))
  end

let wait t =
  Listener.await_stop t.listener;
  stop t
