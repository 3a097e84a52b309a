module Json = Sempe_obs.Json
module Stats = Sempe_util.Stats
module Pool = Sempe_util.Pool
module Sampling = Sempe_sampling.Sampling

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let prefixed p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "unix:" with
  | Some path -> Ok (Unix_sock path)
  | None -> (
    match prefixed "tcp:" with
    | Some rest -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
      | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
    | None ->
      if s = "" then Error "empty address" else Ok (Unix_sock s))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type config = {
  workers : int;
  result_entries : int;
  plan_entries : int;
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
    plan_entries = 32;
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
  address : addr;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  m : Mutex.t;
  results : (int list, Json.t) Cache.t;
  plans : (int list, Sampling.plan) Cache.t;
  inflight : (int list, inflight) Hashtbl.t;
  latency : Stats.Summary.t;
  mutable requests : int;
  mutable ok_replies : int;
  mutable error_replies : int;
  mutable timeouts : int;
  mutable coalesced : int;
  mutable executed : int;
  mutable disk_loaded_results : int;
  mutable disk_loaded_plans : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable active : int;
  mutable in_flight : int;
  mutable max_in_flight : int;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  (* open connections and their handlers: each handler removes its own
     entry as it exits, so the table never outgrows the open set *)
  mutable next_conn : int;
  stop_flag : bool Atomic.t;
  stop_done : bool Atomic.t;
  mutable accept_thread : Thread.t option;
}

let addr t = t.address

let request_stop t = Atomic.set t.stop_flag true

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let stats_json t =
  locked t (fun () ->
      let pct q = Stats.Summary.percentile q t.latency in
      Json.Obj
        [
          ("requests", Json.Int t.requests);
          ("ok", Json.Int t.ok_replies);
          ("errors", Json.Int t.error_replies);
          ("timeouts", Json.Int t.timeouts);
          ("executed", Json.Int t.executed);
          ("coalesced", Json.Int t.coalesced);
          ("disk_loaded_results", Json.Int t.disk_loaded_results);
          ("disk_loaded_plans", Json.Int t.disk_loaded_plans);
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
          ( "plan_cache",
            Json.Obj
              [
                ("entries", Json.Int (Cache.length t.plans));
                ("capacity", Json.Int (Cache.capacity t.plans));
                ("hits", Json.Int (Cache.hits t.plans));
                ("misses", Json.Int (Cache.misses t.plans));
                ("evictions", Json.Int (Cache.evictions t.plans));
                ("cost_evicted_s", Json.Float (Cache.cost_evicted_s t.plans));
                ("total_cost_s", Json.Float (Cache.total_cost_s t.plans));
              ] );
          ( "connections",
            Json.Obj
              [
                ("accepted", Json.Int t.accepted);
                ("rejected", Json.Int t.rejected);
                ("active", Json.Int t.active);
                ("handler_threads", Json.Int (Hashtbl.length t.conns));
              ] );
          ("in_flight", Json.Int t.in_flight);
          ("max_in_flight", Json.Int t.max_in_flight);
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

type outcome =
  | Ok_result of Json.t * bool  (** result, served-from-cache *)
  | Err of string * string  (** code, message *)

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
       | Ok (json, _) -> Ok_result (json, false)
       | Error msg -> Err ("failed", msg))
    | None ->
      if Pool.now_s () > deadline then begin
        (* The execution keeps running and will be adopted into the cache
           by the next request for the same key — only this reply gives
           up. *)
        locked t (fun () -> t.timeouts <- t.timeouts + 1);
        Err
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
  | exception e -> Err ("failed", Printexc.to_string e)
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
              let plan, record_pkey =
                match Api.plan_key req with
                | None -> (None, None)
                | Some pkey -> (
                  match Cache.find t.plans pkey with
                  | Some p -> (Some p, None)
                  | None -> (None, Some pkey))
              in
              `Exec (entry, plan, record_pkey)))
    in
    match action with
    | `Hit json -> Ok_result (json, true)
    | `Join entry -> poll_entry t key entry ~t0
    | `Exec (entry, plan, record_pkey) ->
      (* Inner parallelism stays at 1: concurrency comes from serving
         many requests on the pool, not from nesting domain pools per
         request (the documents are worker-count-independent anyway).
         The job times its own [Api.perform] call: that wall time is the
         entry's recompute cost, which cost-aware eviction minimizes the
         loss of. A recorded plan is charged the same cost — losing it
         forfeits the same fast-forward pass. *)
      let job () =
        let jt0 = Pool.now_s () in
        match
          let recorded = ref None in
          let plan_out =
            match record_pkey with
            | None -> None
            | Some _ -> Some (fun p -> recorded := Some p)
          in
          let json = Api.perform ~workers:1 ?plan ?plan_out req in
          (json, !recorded)
        with
        | json, recorded ->
          let dt = Pool.now_s () -. jt0 in
          (match (record_pkey, recorded) with
           | Some pkey, Some p ->
             locked t (fun () -> Cache.add ~cost:dt t.plans pkey p)
           | _ -> ());
          Ok (json, dt)
        | exception Pool.Shutdown -> Error "shutting down"
        | exception e -> Error (Printexc.to_string e)
      in
      let p = Pool.submit t.pool job in
      locked t (fun () -> entry.promise <- Some p);
      poll_entry t key entry ~t0)

(* ---- the wire loop ---- *)

let reply t fd ~id ~t0 outcome =
  let id_field = match id with Some i -> [ ("id", Json.Int i) ] | None -> [] in
  let doc =
    match outcome with
    | Ok_result (json, cached) ->
      Json.Obj
        (id_field
        @ [
            ("ok", Json.Bool true);
            ("cached", Json.Bool cached);
            ("result", json);
          ])
    | Err (code, message) ->
      Json.Obj
        (id_field
        @ [
            ("ok", Json.Bool false);
            ( "error",
              Json.Obj
                [ ("code", Json.Str code); ("message", Json.Str message) ] );
          ])
  in
  Frame.write fd (Json.to_string doc);
  locked t (fun () ->
      Stats.Summary.observe t.latency (Pool.now_s () -. t0);
      match outcome with
      | Ok_result _ -> t.ok_replies <- t.ok_replies + 1
      | Err _ -> t.error_replies <- t.error_replies + 1)

let handle_payload t fd payload =
  let t0 = Pool.now_s () in
  locked t (fun () ->
      t.requests <- t.requests + 1;
      t.in_flight <- t.in_flight + 1;
      if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight);
  Fun.protect
    ~finally:(fun () -> locked t (fun () -> t.in_flight <- t.in_flight - 1))
    (fun () ->
      match Json.of_string_strict ~max_bytes:t.cfg.max_frame payload with
      | exception Json.Parse_error { pos; message } ->
        reply t fd ~id:None ~t0
          (Err ("bad-json", Printf.sprintf "at byte %d: %s" pos message))
      | Json.Obj fields as json -> (
        let id =
          match List.assoc_opt "id" fields with
          | Some (Json.Int i) -> Some i
          | _ -> None
        in
        match List.assoc_opt "op" fields with
        | Some (Json.Str "ping") ->
          reply t fd ~id ~t0 (Ok_result (Json.Str "pong", false))
        | Some (Json.Str "stats") ->
          reply t fd ~id ~t0 (Ok_result (stats_json t, false))
        | Some (Json.Str "shutdown") ->
          reply t fd ~id ~t0 (Ok_result (Json.Bool true, false));
          request_stop t
        | _ -> (
          match Api.request_of_json json with
          | Error msg -> reply t fd ~id ~t0 (Err ("bad-request", msg))
          | Ok req ->
            let outcome = serve_request t req ~t0 in
            if t.cfg.verbose then
              Printf.eprintf "[serve] %s -> %s in %.3fs\n%!"
                (Json.to_string (Api.request_to_json req))
                (match outcome with
                 | Ok_result (_, true) -> "hit"
                 | Ok_result (_, false) -> "ok"
                 | Err (code, _) -> code)
                (Pool.now_s () -. t0);
            reply t fd ~id ~t0 outcome))
      | _ -> reply t fd ~id:None ~t0 (Err ("bad-request", "request must be a JSON object")))

let conn_loop t fd =
  let rec go () =
    match Frame.read ~max_len:t.cfg.max_frame fd with
    | None -> ()
    | Some payload ->
      handle_payload t fd payload;
      go ()
    | exception Frame.Frame_error msg ->
      (* Tell the peer why before hanging up; a half-read stream cannot
         be resynchronized. *)
      (try
         reply t fd ~id:None ~t0:(Pool.now_s ())
           (Err ("bad-frame", msg))
       with _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  try go () with _ -> ()

let handler t cid fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      locked t (fun () ->
          t.active <- t.active - 1;
          Hashtbl.remove t.conns cid))
    (fun () -> conn_loop t fd)

let busy_doc =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.Str "busy");
               ("message", Json.Str "connection limit reached");
             ] );
       ])

let accept_loop t =
  while not (Atomic.get t.stop_flag) do
    let ready =
      try
        match Unix.select [ t.listen_fd ] [] [] 0.2 with
        | [], _, _ -> false
        | _ -> true
      with Unix.Unix_error _ -> false
    in
    if ready && not (Atomic.get t.stop_flag) then begin
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        let admitted =
          locked t (fun () ->
              if t.active >= t.cfg.max_connections then begin
                t.rejected <- t.rejected + 1;
                false
              end
              else begin
                t.accepted <- t.accepted + 1;
                t.active <- t.active + 1;
                true
              end)
        in
        if not admitted then begin
          (try Frame.write fd busy_doc with _ -> ());
          try Unix.close fd with _ -> ()
        end
        else
          (* Registered under the lock the handler takes to deregister, so
             even a handler that exits at once finds its entry. *)
          locked t (fun () ->
              let cid = t.next_conn in
              t.next_conn <- cid + 1;
              let th = Thread.create (fun () -> handler t cid fd) () in
              Hashtbl.replace t.conns cid (fd, th))
    end
  done

(* ---- lifecycle ---- *)

let bind_listen ~backlog address =
  let fd =
    match address with
    | Unix_sock path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
    | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            raise
              (Unix.Unix_error
                 (Unix.EINVAL, "gethostbyname", host)))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      fd
  in
  Unix.listen fd backlog;
  fd

let start ?(config = default_config) address =
  (* A peer hanging up mid-reply must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let listen_fd = bind_listen ~backlog:(max 16 config.max_connections) address in
  let t =
    {
      cfg = config;
      address;
      listen_fd;
      pool = Pool.create ~workers:config.workers ();
      m = Mutex.create ();
      results = Cache.create ~capacity:config.result_entries;
      plans = Cache.create ~capacity:config.plan_entries;
      inflight = Hashtbl.create 16;
      latency = Stats.Summary.create ();
      requests = 0;
      ok_replies = 0;
      error_replies = 0;
      timeouts = 0;
      coalesced = 0;
      executed = 0;
      disk_loaded_results = 0;
      disk_loaded_plans = 0;
      accepted = 0;
      rejected = 0;
      active = 0;
      in_flight = 0;
      max_in_flight = 0;
      conns = Hashtbl.create 16;
      next_conn = 0;
      stop_flag = Atomic.make false;
      stop_done = Atomic.make false;
      accept_thread = None;
    }
  in
  (* Warm start: reload whatever the previous run flushed. Entries go in
     oldest-first so the cache rebuilds the recorded recency order (and,
     should capacities have shrunk, evicts the stalest first). No client
     can connect yet, so no lock is needed. *)
  (match config.store_dir with
   | None -> ()
   | Some dir ->
     let { Persist.responses; plans; warnings } = Persist.load ~dir in
     List.iter (Printf.eprintf "[serve] store: %s\n%!") warnings;
     List.iter
       (fun (key, json, cost) ->
         Cache.add ~cost t.results key json;
         t.disk_loaded_results <- t.disk_loaded_results + 1)
       (List.rev responses);
     List.iter
       (fun (key, plan, cost) ->
         Cache.add ~cost t.plans key plan;
         t.disk_loaded_plans <- t.disk_loaded_plans + 1)
       (List.rev plans);
     if config.verbose then
       Printf.eprintf "[serve] store: loaded %d responses, %d plans from %s\n%!"
         t.disk_loaded_results t.disk_loaded_plans dir);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop t =
  if not (Atomic.exchange t.stop_done true) then begin
    Atomic.set t.stop_flag true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (match t.address with
     | Unix_sock path -> ( try Sys.remove path with _ -> ())
     | Tcp _ -> ());
    (* Drain: every request already being processed finishes and replies
       (bounded by the per-request timeout, with slack for the reply). *)
    let grace =
      Pool.now_s ()
      +. (if t.cfg.timeout_s > 0. then t.cfg.timeout_s +. 10. else 600.)
    in
    let rec drain () =
      let busy = locked t (fun () -> t.in_flight) in
      if busy > 0 && Pool.now_s () < grace then begin
        Thread.delay 0.005;
        drain ()
      end
    in
    drain ();
    (* Wake connections idle in [Frame.read] so their handlers exit. *)
    let open_conns =
      locked t (fun () -> List.of_seq (Hashtbl.to_seq_values t.conns))
    in
    List.iter
      (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      open_conns;
    (* Handlers that already deregistered have nothing left to do. *)
    List.iter (fun (_, th) -> Thread.join th) open_conns;
    Pool.shutdown ~drain:true t.pool;
    (* Every thread is joined and the pool drained: the caches are
       quiescent, flush them. A failed flush must not turn a graceful
       shutdown into a crash — the store is an optimization. *)
    match t.cfg.store_dir with
    | None -> ()
    | Some dir -> (
      try
        Persist.save ~dir
          ~responses:(Cache.to_list t.results)
          ~plans:(Cache.to_list t.plans)
      with e ->
        Printf.eprintf "[serve] store flush to %s failed: %s\n%!" dir
          (Printexc.to_string e))
  end

let wait t =
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.05
  done;
  stop t
