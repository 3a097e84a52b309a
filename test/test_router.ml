(* Tests for the sharded serving fleet: consistent-hash ring properties
   (determinism, balance, bounded remapping), the persistent cache store
   (round-trip, corruption tolerance, the server's reload-on-start
   path), and an in-process two-shard fleet behind a router — byte
   equality with the batch path, routing stability, retry/failover past
   a refusing or killed shard, graceful fleet drain, and the router's
   reused shard links (one per sequential client, a stale link after a
   shard restart, at most one per concurrent client). *)

module Json = Sempe_obs.Json
module Api = Sempe_serve.Api
module Server = Sempe_serve.Server
module Router = Sempe_serve.Router
module Client = Sempe_serve.Client
module Persist = Sempe_serve.Persist
module Scheme = Sempe_core.Scheme
module Ring = Router.Ring

(* ---- the hash ring ----------------------------------------------------- *)

(* Deterministic pseudo-request keys in the same shape route_key emits. *)
let key i =
  let h1, h2 = Api.digests (Printf.sprintf "request-%d" i) in
  [ h1; h2 ]

let test_ring_determinism () =
  let r = Ring.create 4 and r' = Ring.create 4 in
  Alcotest.(check int) "shard count" 4 (Ring.shards r);
  for i = 0 to 499 do
    let a = Ring.assign r (key i) in
    Alcotest.(check bool) "assignment in range" true (a >= 0 && a < 4);
    Alcotest.(check int) "assignment is a pure function" a
      (Ring.assign r' (key i));
    let order = Ring.order r (key i) in
    Alcotest.(check int) "failover order covers every shard" 4
      (List.length (List.sort_uniq compare order));
    Alcotest.(check int) "failover order starts at the owner" a
      (List.hd order)
  done

let test_ring_balance () =
  let r = Ring.create 4 in
  let counts = Array.make 4 0 in
  let n = 2000 in
  for i = 0 to n - 1 do
    let s = Ring.assign r (key i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d holds a fair-ish share (%d/%d)" s c n)
        true
        (c > n / 20))
    counts

let test_ring_bounded_remapping () =
  (* Growing 4 shards to 5 must remap only keys the new shard claims:
     every key either keeps its assignment or moves to shard 4, and the
     moved fraction sits near 1/5 — nowhere near the ~100% a modular
     hash would reshuffle. *)
  let r4 = Ring.create 4 and r5 = Ring.create 5 in
  let n = 2000 in
  let moved = ref 0 in
  for i = 0 to n - 1 do
    let a4 = Ring.assign r4 (key i) and a5 = Ring.assign r5 (key i) in
    if a4 <> a5 then begin
      incr moved;
      Alcotest.(check int) "a moved key moved to the new shard" 4 a5
    end
  done;
  let fraction = float_of_int !moved /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "remapped fraction %.3f stays near 1/5" fraction)
    true
    (fraction > 0.05 && fraction < 0.35)

(* ---- the persistent store ---------------------------------------------- *)

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sempe-t%d-%s" (Unix.getpid ()) name)
  in
  let rec wipe path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> wipe (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  wipe dir;
  dir

let test_persist_roundtrip () =
  let dir = fresh_dir "persist" in
  let responses =
    [
      ([ 11; 22; 33; 44 ], Json.Obj [ ("cycles", Json.Int 7) ], 1.5);
      ([ 55; 66 ], Json.Str "leakage-matrix", 0.25);
    ]
  in
  Persist.save ~dir ~responses ~plans:[];
  let loaded = Persist.load ~dir in
  Alcotest.(check (list string)) "clean load has no warnings" []
    loaded.Persist.warnings;
  Alcotest.(check bool) "responses survive byte-for-byte, in order" true
    (loaded.Persist.responses = responses);
  Alcotest.(check int) "no plans were stored" 0
    (List.length loaded.Persist.plans);
  (* a second save atomically replaces the first *)
  Persist.save ~dir ~responses:[ List.hd responses ] ~plans:[];
  Alcotest.(check int) "rewrite replaces the store" 1
    (List.length (Persist.load ~dir).Persist.responses)

let test_persist_corruption_tolerated () =
  Alcotest.(check bool) "missing dir loads empty" true
    (Persist.load ~dir:(fresh_dir "persist-none") = Persist.
       { responses = []; plans = []; warnings = [] });
  let dir = fresh_dir "persist-bad" in
  Unix.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "responses.v1.jsonl" "{\"store\":\"other\",\"version\":9}\n{}\n";
  write "plans.v1.bin" "sempe-serve-plans.v9\ngarbage";
  let loaded = Persist.load ~dir in
  Alcotest.(check int) "nothing loads from foreign stores" 0
    (List.length loaded.Persist.responses + List.length loaded.Persist.plans);
  Alcotest.(check int) "each skipped file warns once" 2
    (List.length loaded.Persist.warnings);
  (* a valid header with one corrupt line: the good entries still load *)
  write "responses.v1.jsonl"
    ("{\"store\":\"sempe-serve-responses\",\"version\":1}\n"
   ^ "{\"key\":[1,2],\"cost_s\":0.5,\"response\":{\"ok\":1}}\n"
   ^ "this is not json\n");
  let loaded = Persist.load ~dir in
  Alcotest.(check int) "good entry loads past the corrupt one" 1
    (List.length loaded.Persist.responses)

(* ---- in-process fleet helpers ------------------------------------------ *)

let sock_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "sempe-t%d-%s.sock" (Unix.getpid ()) name)

let with_conn addr f =
  let conn = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)

let ok = function
  | Ok v -> v
  | Error { Client.code; message } ->
    Alcotest.fail (Printf.sprintf "fleet error %s: %s" code message)

let stat path json =
  let rec go json = function
    | [] -> ( match json with Json.Int i -> i | _ -> -1)
    | name :: rest -> (
      match json with
      | Json.Obj fields -> (
        match List.assoc_opt name fields with Some v -> go v rest | None -> -1)
      | _ -> -1)
  in
  go json path

let fib w =
  Api.Simulate
    {
      scheme = Scheme.Sempe;
      workload = Api.Microbench { kernel = "fibonacci"; width = w; iters = 3; leaf = 1 };
      strict_oob = false;
    }

(* A request owned by each shard of a 2-shard default ring: routing is a
   pure function of the request bytes, so the tests can pick their
   victims deterministically. *)
let request_owned_by shard =
  let ring = Ring.create 2 in
  let rec go w =
    if w > 64 then Alcotest.fail "no request found for shard"
    else if Ring.assign ring (Api.route_key (fib w)) = shard then fib w
    else go (w + 1)
  in
  go 2

(* ---- server persistence round-trip ------------------------------------- *)

let test_server_store_roundtrip () =
  let dir = fresh_dir "store" in
  let config = { Server.default_config with Server.store_dir = Some dir } in
  let req = fib 3 in
  let first =
    let path = sock_path "store-a" in
    let server = Server.start ~config (Server.Unix_sock path) in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        with_conn (Server.Unix_sock path) (fun conn ->
            let doc, cached = ok (Client.call_cached conn req) in
            Alcotest.(check bool) "cold store, cold cache" false cached;
            doc))
    (* Server.stop flushes the store on the way out. *)
  in
  let path = sock_path "store-b" in
  let server = Server.start ~config (Server.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      with_conn (Server.Unix_sock path) (fun conn ->
          let stats = ok (Client.stats conn) in
          Alcotest.(check bool) "restart reports disk-loaded entries" true
            (stat [ "disk_loaded_results" ] stats >= 1);
          let doc, cached = ok (Client.call_cached conn req) in
          Alcotest.(check bool) "first request after restart is a cache hit"
            true cached;
          Alcotest.(check string) "disk-loaded response byte-identical"
            (Json.to_string first) (Json.to_string doc)))

(* ---- router end to end -------------------------------------------------- *)

let test_fleet_byte_equality_failover_drain () =
  let s0 = sock_path "fleet-s0" and s1 = sock_path "fleet-s1" in
  let r = sock_path "fleet-r" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ s0; s1; r ];
  let shard0 = Server.start (Server.Unix_sock s0) in
  let shard1 = Server.start (Server.Unix_sock s1) in
  let router_cfg = { Router.default_config with Router.backoff_s = 0.01 } in
  let router =
    Router.start ~config:router_cfg
      ~shards:[ Server.Unix_sock s0; Server.Unix_sock s1 ]
      (Server.Unix_sock r)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop shard0;
      Server.stop shard1;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ s0; s1; r ])
    (fun () ->
      let req0 = request_owned_by 0 and req1 = request_owned_by 1 in
      with_conn (Server.Unix_sock r) (fun conn ->
          (* routed responses are byte-identical to the batch path *)
          List.iter
            (fun req ->
              Alcotest.(check string) "routed = batch bytes"
                (Json.to_string (Api.perform req))
                (Json.to_string (ok (Client.call conn req))))
            [ req0; req1; Api.Fuzz_smoke { seed = 3; count = 10 } ];
          (* repeats land on the same shard's warm cache *)
          let _, cached = ok (Client.call_cached conn req0) in
          Alcotest.(check bool) "repeat is a cache hit through the router"
            true cached;
          let stats = ok (Client.stats conn) in
          Alcotest.(check bool) "fleet-wide hit counter visible" true
            (stat [ "result_cache"; "hits" ] stats >= 1);
          Alcotest.(check int) "no failovers yet" 0
            (stat [ "failovers" ] stats);
          (* kill shard 0: its requests must fail over to shard 1 and
             still serve byte-identical responses *)
          Server.stop shard0;
          Alcotest.(check string) "failover serves identical bytes"
            (Json.to_string (Api.perform req0))
            (Json.to_string (ok (Client.call conn req0)));
          let stats = ok (Client.stats conn) in
          Alcotest.(check bool) "failover recorded" true
            (stat [ "failovers" ] stats >= 1);
          Alcotest.(check bool) "retries recorded" true
            (stat [ "retried" ] stats >= 1);
          (* graceful drain: the client-visible shutdown stops the
             remaining shard and then the router *)
          ok (Client.shutdown conn));
      Server.wait shard1;
      Router.wait router;
      Alcotest.(check bool) "router socket removed" false (Sys.file_exists r);
      Alcotest.(check bool) "drained shard socket removed" false
        (Sys.file_exists s1))

let test_router_retries_refusing_shard () =
  (* Shard 0 is an address nothing listens on: every request it owns
     must be retried (with backoff) and then failed over to the live
     shard — no client-visible failures. *)
  let dead = sock_path "refuse-dead" and live = sock_path "refuse-live" in
  let r = sock_path "refuse-r" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ dead; live; r ];
  let shard1 = Server.start (Server.Unix_sock live) in
  let config =
    { Router.default_config with Router.retries = 2; backoff_s = 0.005 }
  in
  let router =
    Router.start ~config
      ~shards:[ Server.Unix_sock dead; Server.Unix_sock live ]
      (Server.Unix_sock r)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop shard1;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ live; r ])
    (fun () ->
      let req0 = request_owned_by 0 in
      with_conn (Server.Unix_sock r) (fun conn ->
          Alcotest.(check string) "refused shard's request served elsewhere"
            (Json.to_string (Api.perform req0))
            (Json.to_string (ok (Client.call conn req0)));
          let stats = ok (Client.stats conn) in
          Alcotest.(check bool) "connection refusal was retried" true
            (stat [ "retried" ] stats >= 1);
          Alcotest.(check bool) "then failed over" true
            (stat [ "failovers" ] stats >= 1);
          (* the dead shard is out of rotation; the fleet keeps serving *)
          Alcotest.(check string) "fleet remains serviceable"
            (Json.to_string (Api.perform req0))
            (Json.to_string (ok (Client.call conn req0)))))

(* A fresh in-process fleet of two shards behind a router, torn down
   after [f]; [restart_shard0] stops shard 0 and starts a new one at the
   same path. *)
let with_fleet name f =
  let s0 = sock_path (name ^ "-s0") and s1 = sock_path (name ^ "-s1") in
  let r = sock_path (name ^ "-r") in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ s0; s1; r ];
  let shard0 = ref (Server.start (Server.Unix_sock s0)) in
  let shard1 = Server.start (Server.Unix_sock s1) in
  let router =
    Router.start ~shards:[ Server.Unix_sock s0; Server.Unix_sock s1 ] (Server.Unix_sock r)
  in
  let restart_shard0 () =
    Server.stop !shard0;
    shard0 := Server.start (Server.Unix_sock s0)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Server.stop !shard0;
      Server.stop shard1;
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ s0; s1; r ])
    (fun () -> f ~shards:(fun () -> [ !shard0; shard1 ]) ~restart_shard0 (Server.Unix_sock r))

(* The router reaps its finished client handlers, and reaches each shard
   over one link however many client connections come and go: 1,000
   sequential routed requests, each on its own client connection. *)
let test_fleet_reaps_handlers () =
  with_fleet "reap" (fun ~shards ~restart_shard0:_ r ->
      let reqs = [| request_owned_by 0; request_owned_by 1 |] in
      for i = 1 to 1_000 do
        with_conn r (fun conn -> ignore (ok (Client.call conn reqs.(i land 1))))
      done;
      let settle = Test_serve.settle in
      let retained json = stat [ "connections"; "handler_threads" ] json in
      with_conn r (fun conn ->
          Alcotest.(check int) "router retains only the open connection" 1
            (settle ~want:1 (fun () -> retained (ok (Client.stats conn)))));
      List.iteri
        (fun i shard ->
          let json = Server.stats_json shard in
          Alcotest.(check int)
            (Printf.sprintf "shard %d accepted one connection, the router's link" i)
            1
            (stat [ "connections"; "accepted" ] json);
          Alcotest.(check bool)
            (Printf.sprintf "shard %d served its share over it" i)
            true
            (stat [ "requests" ] json >= 500);
          Alcotest.(check int) (Printf.sprintf "shard %d retains that link's handler" i) 1
            (retained json))
        (shards ()))

(* A shard restarted at the same address leaves the router holding a
   stale idle link. The next request through it must still be served by
   that shard, on one fresh connection, without counting a retry. *)
let test_router_stale_link () =
  with_fleet "stale" (fun ~shards ~restart_shard0 r ->
      let req0 = request_owned_by 0 in
      with_conn r (fun conn ->
          ignore (ok (Client.call conn req0));
          restart_shard0 ();
          Alcotest.(check string) "reply over a fresh link = batch bytes"
            (Json.to_string (Api.perform req0))
            (Json.to_string (ok (Client.call conn req0)));
          let stats = ok (Client.stats conn) in
          Alcotest.(check int) "a stale link is not a retry" 0 (stat [ "retried" ] stats);
          Alcotest.(check int) "nor a failover" 0 (stat [ "failovers" ] stats);
          Alcotest.(check int) "the restarted shard got one link" 1
            (stat [ "connections"; "accepted" ] (Server.stats_json (List.hd (shards ()))))))

(* Links are opened only when none is idle, so K concurrent clients give
   each shard at most K of the router's connections, not one per
   request. *)
let test_router_link_bound () =
  with_fleet "bound" (fun ~shards ~restart_shard0:_ r ->
      let k = 4 and per_client = 25 in
      let reqs = [| request_owned_by 0; request_owned_by 1 |] in
      let want = Array.map (fun req -> Json.to_string (Api.perform req)) reqs in
      let mismatches = Atomic.make 0 in
      let client c =
        with_conn r (fun conn ->
            for i = 1 to per_client do
              let j = (c + i) land 1 in
              match Client.call conn reqs.(j) with
              | Ok doc when Json.to_string doc = want.(j) -> ()
              | _ -> Atomic.incr mismatches
            done)
      in
      List.iter Thread.join (List.init k (fun c -> Thread.create client c));
      Alcotest.(check int) "every concurrent reply = batch bytes" 0 (Atomic.get mismatches);
      List.iteri
        (fun i shard ->
          let accepted = stat [ "connections"; "accepted" ] (Server.stats_json shard) in
          Alcotest.(check bool)
            (Printf.sprintf "shard %d accepted %d <= %d links" i accepted k)
            true
            (accepted >= 1 && accepted <= k))
        (shards ()))

let tests =
  [
    Alcotest.test_case "ring: deterministic assignment" `Quick
      test_ring_determinism;
    Alcotest.test_case "ring: balanced shares" `Quick test_ring_balance;
    Alcotest.test_case "ring: bounded remapping on grow" `Quick
      test_ring_bounded_remapping;
    Alcotest.test_case "persist: store round-trip" `Quick test_persist_roundtrip;
    Alcotest.test_case "persist: corruption tolerated" `Quick
      test_persist_corruption_tolerated;
    Alcotest.test_case "daemon: store survives restart" `Quick
      test_server_store_roundtrip;
    Alcotest.test_case "fleet: bytes, failover, drain" `Slow
      test_fleet_byte_equality_failover_drain;
    Alcotest.test_case "fleet: refusing shard retried" `Quick
      test_router_retries_refusing_shard;
    Alcotest.test_case "fleet: finished handlers reaped" `Quick
      test_fleet_reaps_handlers;
    Alcotest.test_case "fleet: stale link reconnects" `Quick
      test_router_stale_link;
    Alcotest.test_case "fleet: links bounded by concurrency" `Quick
      test_router_link_bound;
  ]
