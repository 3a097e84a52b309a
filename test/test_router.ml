(* Tests for the sharded serving fleet: consistent-hash ring properties
   (determinism, balance, bounded remapping), the persistent cache store
   (round-trip, corruption tolerance, the server's reload-on-start
   path), and an in-process two-shard fleet behind a router — byte
   equality with the batch path, routing stability, retry/failover past
   a refusing, unresolvable or killed shard, graceful fleet drain, a
   stop that lets an in-flight forward reply, and the router's reused
   shard links (one per sequential client, a stale link after a shard
   restart, at most one per concurrent client). Last, the connection
   layer both front ends share ({!Sempe_serve.Listener}), driven over
   raw frames against a daemon and against a router. *)

module Json = Sempe_obs.Json
module Api = Sempe_serve.Api
module Server = Sempe_serve.Server
module Router = Sempe_serve.Router
module Client = Sempe_serve.Client
module Frame = Sempe_serve.Frame
module Listener = Sempe_serve.Listener
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
  at_exit (fun () -> wipe dir);
  dir

(* The model digest the store tests save and load under. *)
let model = "model-a"

let test_persist_roundtrip () =
  let dir = fresh_dir "persist" in
  let responses =
    [
      ([ 11; 22; 33; 44 ], Json.Obj [ ("cycles", Json.Int 7) ], 1.5);
      ([ 55; 66 ], Json.Str "leakage-matrix", 0.25);
    ]
  in
  Persist.save ~dir ~model ~responses;
  let loaded = Persist.load ~dir ~model in
  Alcotest.(check (list string)) "clean load has no warnings" []
    loaded.Persist.warnings;
  Alcotest.(check bool) "responses survive byte-for-byte, in order" true
    (loaded.Persist.responses = responses);
  (* a second save atomically replaces the first *)
  Persist.save ~dir ~model ~responses:[ List.hd responses ];
  Alcotest.(check int) "rewrite replaces the store" 1
    (List.length (Persist.load ~dir ~model).Persist.responses)

let test_persist_corruption_tolerated () =
  Alcotest.(check bool) "missing dir loads empty" true
    (Persist.load ~dir:(fresh_dir "persist-none") ~model
    = Persist.{ responses = []; warnings = [] });
  let dir = fresh_dir "persist-bad" in
  Unix.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "responses.v1.jsonl" "{\"store\":\"other\",\"version\":9}\n{}\n";
  let loaded = Persist.load ~dir ~model in
  Alcotest.(check int) "nothing loads from a foreign store" 0
    (List.length loaded.Persist.responses);
  Alcotest.(check int) "the skipped file warns once" 1
    (List.length loaded.Persist.warnings);
  (* a valid header with one corrupt line: the good entries still load *)
  write "responses.v1.jsonl"
    ("{\"store\":\"sempe-serve-responses\",\"version\":1,\"model\":\"model-a\"}\n"
   ^ "{\"key\":[1,2],\"cost_s\":0.5,\"response\":{\"ok\":1}}\n"
   ^ "this is not json\n");
  let loaded = Persist.load ~dir ~model in
  Alcotest.(check int) "good entry loads past the corrupt one" 1
    (List.length loaded.Persist.responses);
  (* a store that cannot be read is skipped, not a failed start *)
  let dir = fresh_dir "persist-unreadable" in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "responses.v1.jsonl") 0o755;
  let loaded = Persist.load ~dir ~model in
  Alcotest.(check int) "an unreadable store loads empty" 0
    (List.length loaded.Persist.responses);
  Alcotest.(check int) "and warns once" 1 (List.length loaded.Persist.warnings)

(* A store belongs to the model that wrote it: loading under another
   model digest, or from a header that names none (as every store
   written before the digest existed), loads no entry and warns once,
   quoting the store's header and naming this model. *)
let test_persist_other_model () =
  let dir = fresh_dir "persist-model" in
  let responses =
    [
      ([ 1; 2; 3; 4 ], Json.Obj [ ("cycles", Json.Int 7) ], 1.5);
      ([ 5; 6 ], Json.Str "leakage-matrix", 0.25);
    ]
  in
  Persist.save ~dir ~model ~responses;
  let same = Persist.load ~dir ~model in
  Alcotest.(check bool) "the same model loads every line" true
    (same.Persist.responses = responses && same.Persist.warnings = []);
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let skipped ~ctx ~model ~header =
    let other = Persist.load ~dir ~model in
    Alcotest.(check int) (ctx ^ ": no entry loads") 0
      (List.length other.Persist.responses);
    match other.Persist.warnings with
    | [ w ] ->
      Alcotest.(check bool) (ctx ^ ": the warning quotes the header") true
        (contains w (String.escaped header));
      Alcotest.(check bool) (ctx ^ ": the warning names this model") true
        (contains w ("this is model " ^ model))
    | ws -> Alcotest.failf "%s: %d warnings, expected one" ctx (List.length ws)
  in
  let path = Filename.concat dir "responses.v1.jsonl" in
  let image = In_channel.with_open_bin path In_channel.input_all in
  let nl = String.index image '\n' in
  skipped ~ctx:"another model" ~model:"model-b" ~header:(String.sub image 0 nl);
  (* the same entries under the header a store had before the digest *)
  let no_model = "{\"store\":\"sempe-serve-responses\",\"version\":1}" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc no_model;
      output_string oc (String.sub image nl (String.length image - nl)));
  skipped ~ctx:"a header without a model" ~model ~header:no_model

(* Damage to a saved store: one byte flipped, or the file cut short.
   Loading never raises, and every entry line the damage did not reach
   loads as saved, in order; the damaged lines yield at most two entries
   (a flipped newline merges two lines, a byte flipped into a newline
   splits one). A damaged header skips the whole store with a warning:
   the version check cannot tell damage from a foreign version. *)
let test_persist_damage =
  let entry =
    QCheck.Gen.(
      map3
        (fun key (n, name) c ->
          ( key,
            Json.Obj [ ("cycles", Json.Int n); ("name", Json.Str name) ],
            float_of_int c /. 8. ))
        (list_size (int_range 2 4) int)
        (pair int (string_size ~gen:printable (int_range 0 12)))
        (int_range 0 1000))
  in
  let damage = QCheck.Gen.(triple bool nat (int_range 1 255)) in
  let dir = lazy (fresh_dir "persist-damage") in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"persist: flipped or cut store" ~count:300
       (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 6) entry) damage))
       (fun (responses, (cut, pos, mask)) ->
         let dir = Lazy.force dir in
         let path = Filename.concat dir "responses.v1.jsonl" in
         Persist.save ~dir ~model ~responses;
         let image = In_channel.with_open_bin path In_channel.input_all in
         let pos = pos mod String.length image in
         let damaged =
           if cut then String.sub image 0 pos
           else
             String.mapi
               (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c)
               image
         in
         Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
         let loaded = Persist.load ~dir ~model in
         (* (first byte, closing newline) of each entry line *)
         let header_end = String.index image '\n' in
         let spans, _ =
           List.fold_left
             (fun (acc, start) _ ->
               let stop = String.index_from image start '\n' in
               (acc @ [ (start, stop) ], stop + 1))
             ([], header_end + 1) responses
         in
         (* the last byte whose line the damage reaches *)
         let reached =
           if cut then String.length image
           else if image.[pos] = '\n' then pos + 1
           else pos
         in
         let pick keep = List.filteri (fun i _ -> keep (List.nth spans i)) responses in
         let before = pick (fun (_, stop) -> stop < pos) in
         let after = pick (fun (start, _) -> start > reached) in
         let got = loaded.Persist.responses in
         let n = List.length got in
         let nb = List.length before and na = List.length after in
         if pos <= header_end && not cut then
           (* only a header newline flipped into trailing whitespace
              leaves the header valid, and then only an empty store
              loads without a warning *)
           got = [] && (responses = [] || loaded.Persist.warnings <> [])
         else
           List.filteri (fun i _ -> i < nb) got = before
           && List.filteri (fun i _ -> i >= n - na) got = after
           && n - nb - na >= 0
           && n - nb - na <= 2))

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

(* Shard 0 is an address no shard answers on: a unix path nothing
   listens on (refused), or a TCP host name that does not resolve. Every
   request it owns must be retried (with backoff) and then failed over to
   the live shard — no client-visible failures — and the [stats] fan-out
   still answers. *)
let test_router_dead_shard name dead () =
  let live = sock_path (name ^ "-live") and r = sock_path (name ^ "-r") in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ live; r ];
  let shard1 = Server.start (Server.Unix_sock live) in
  let config =
    { Router.default_config with Router.retries = 2; backoff_s = 0.005 }
  in
  let router =
    Router.start ~config ~shards:[ dead; Server.Unix_sock live ] (Server.Unix_sock r)
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
          Alcotest.(check string) "dead shard's request served elsewhere"
            (Json.to_string (Api.perform req0))
            (Json.to_string (ok (Client.call conn req0)));
          let stats = ok (Client.stats conn) in
          Alcotest.(check bool) "the failed connect was retried" true
            (stat [ "retried" ] stats >= 1);
          Alcotest.(check bool) "then failed over" true
            (stat [ "failovers" ] stats >= 1);
          (* the dead shard is out of rotation; the fleet keeps serving *)
          List.iter
            (fun req ->
              Alcotest.(check string) "fleet remains serviceable"
                (Json.to_string (Api.perform req))
                (Json.to_string (ok (Client.call conn req))))
            [ req0; request_owned_by 1 ]))

(* A fresh in-process fleet of two shards behind a router, torn down
   after [f]; [restart_shard0] stops shard 0 and starts a new one at the
   same path. [f] may stop the router itself. *)
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
    (fun () ->
      f ~router ~shards:(fun () -> [ !shard0; shard1 ]) ~restart_shard0 (Server.Unix_sock r))

(* The router reaps its finished client handlers, and reaches each shard
   over one link however many client connections come and go: 1,000
   sequential routed requests, each on its own client connection. *)
let test_fleet_reaps_handlers () =
  with_fleet "reap" (fun ~router:_ ~shards ~restart_shard0:_ r ->
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
  with_fleet "stale" (fun ~router:_ ~shards ~restart_shard0 r ->
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
  with_fleet "bound" (fun ~router:_ ~shards ~restart_shard0:_ r ->
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

(* A request that runs for about 0.7 s, well past the accept loop's
   0.2 s poll that stop waits out, and the shard of a two-shard fleet
   that owns it. *)
let slow_request =
  Api.Simulate
    {
      scheme = Scheme.Sempe;
      workload = Api.Microbench { kernel = "quicksort"; width = 10; iters = 30; leaf = 1 };
      strict_oob = false;
    }

let slow_owner = Ring.assign (Ring.create 2) (Api.route_key slow_request)

(* Send [slow_request] through the router at [r] from its own thread and
   return once its shard is running it; the returned function waits for
   the reply and checks it against the batch bytes. *)
let send_slow ~shards r =
  let reply = ref None in
  let client =
    Thread.create
      (fun () -> with_conn r (fun conn -> reply := Some (Client.call conn slow_request)))
      ()
  in
  let in_flight () = stat [ "in_flight" ] (Server.stats_json (List.nth (shards ()) slow_owner)) in
  Alcotest.(check int) "a shard is running the request" 1 (Test_serve.settle ~want:1 in_flight);
  fun () ->
    Thread.join client;
    match !reply with
    | Some (Ok doc) ->
      Alcotest.(check string) "reply across stop = batch bytes"
        (Json.to_string (Api.perform slow_request)) (Json.to_string doc)
    | Some (Error { Client.code; message }) -> Alcotest.failf "%s: %s" code message
    | None -> Alcotest.fail "no reply"

(* Router.stop lets a forward already in flight finish: the client gets
   the shard's reply, not a closed connection. *)
let test_router_stop_drains () =
  with_fleet "stop-drain" (fun ~router ~shards ~restart_shard0:_ r ->
      let finish = send_slow ~shards r in
      Router.stop router;
      finish ())

(* The drain covers only requests already being answered: a client
   sending back to back through the router (to the other shard) while
   stop waits for a slow forward gets at most the reply in hand and the
   one it had sent, then finds its connection closed. Every reply it got
   equals the batch bytes, and stop returns once the slow forward has
   replied. *)
let test_router_stop_busy_client () =
  with_fleet "stop-busy" (fun ~router ~shards ~restart_shard0:_ r ->
      let req = request_owned_by (1 - slow_owner) in
      let want = Json.to_string (Api.perform req) in
      let replies = Atomic.make 0 and late = Atomic.make 0 and wrong = Atomic.make 0 in
      let stop_requested = Atomic.make false in
      let client =
        Thread.create
          (fun () ->
            with_conn r (fun conn ->
                (* Give up after 15 s, so a stop that never closes the
                   connection fails below instead of hanging. *)
                let deadline = Unix.gettimeofday () +. 15. in
                let rec go () =
                  if Unix.gettimeofday () < deadline then
                    match Client.call conn req with
                    | Ok doc ->
                      if Json.to_string doc <> want then Atomic.incr wrong;
                      if Atomic.get stop_requested then Atomic.incr late;
                      Atomic.incr replies;
                      go ()
                    | Error _ -> ()
                in
                go ()))
          ()
      in
      Alcotest.(check bool) "the client is sending" true
        (Test_serve.settle ~want:true (fun () -> Atomic.get replies >= 20));
      let finish = send_slow ~shards r in
      let t0 = Unix.gettimeofday () in
      Router.request_stop router;
      Atomic.set stop_requested true;
      Router.stop router;
      let took = Unix.gettimeofday () -. t0 in
      finish ();
      Thread.join client;
      Alcotest.(check bool) (Printf.sprintf "stop returned in %.2f s" took) true (took < 5.);
      Alcotest.(check bool)
        (Printf.sprintf "%d replies after stop" (Atomic.get late))
        true
        (Atomic.get late <= 2);
      Alcotest.(check int) "every reply = batch bytes" 0 (Atomic.get wrong))

(* ---- the shared connection layer, against both front ends -------------- *)

(* [start ~max_connections name f] runs [f addr] against a fresh front
   end at [addr]: a daemon, or a router over one daemon. *)
let front_ends =
  [
    ( "daemon",
      fun ~max_connections name f ->
        let path = sock_path name in
        let s =
          Server.start ~config:{ Server.default_config with Server.max_connections }
            (Server.Unix_sock path)
        in
        Fun.protect ~finally:(fun () -> Server.stop s) (fun () -> f (Server.Unix_sock path)) );
    ( "router",
      fun ~max_connections name f ->
        let shard = sock_path (name ^ "-shard") and path = sock_path name in
        let s = Server.start (Server.Unix_sock shard) in
        let r =
          Router.start ~config:{ Router.default_config with Router.max_connections }
            ~shards:[ Server.Unix_sock shard ] (Server.Unix_sock path)
        in
        Fun.protect
          ~finally:(fun () ->
            Router.stop r;
            Server.stop s)
          (fun () -> f (Server.Unix_sock path)) );
  ]

(* Reads time out after 10 s: a front end that never replies fails the
   case with EAGAIN instead of hanging the suite. *)
let with_raw addr f =
  let fd = Listener.dial addr in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let read_doc fd =
  match Frame.read fd with
  | Some payload -> Json.of_string payload
  | None -> Alcotest.fail "hung up instead of replying"

let error_code doc =
  match Option.bind (Json.member "error" doc) (Json.member "code") with
  | Some (Json.Str code) -> code
  | _ -> "(no error code)"

let expect_eof fd = Alcotest.(check bool) "then EOF" true (Frame.read fd = None)

let listener_cases =
  [
    ( "busy past max_connections",
      fun addr ->
        with_conn addr (fun conn ->
            ok (Client.ping conn);
            with_raw addr (fun fd ->
                Alcotest.(check string) "second connection" "busy" (error_code (read_doc fd));
                expect_eof fd);
            Alcotest.(check int) "stats counts it" 1
              (stat [ "connections"; "rejected" ] (ok (Client.stats conn)))) );
    ( "oversize frame gets bad-frame",
      fun addr ->
        with_raw addr (fun fd ->
            let header = Bytes.create 4 in
            Bytes.set_int32_be header 0 (Int32.of_int (Frame.max_len_default + 1));
            ignore (Unix.write fd header 0 4);
            Alcotest.(check string) "declared length over max_frame" "bad-frame"
              (error_code (read_doc fd));
            expect_eof fd) );
    ( "malformed requests keep the connection",
      fun addr ->
        with_raw addr (fun fd ->
            Frame.write fd "{\"op\": ";
            Alcotest.(check string) "broken JSON" "bad-json" (error_code (read_doc fd));
            Frame.write fd "[1, 2]";
            Alcotest.(check string) "not an object" "bad-request" (error_code (read_doc fd));
            Frame.write fd "{\"op\": \"ping\"}";
            Alcotest.(check bool) "still serving" true
              (Json.member "result" (read_doc fd) = Some (Json.Str "pong"))) );
    ( "ping echoes the id",
      fun addr ->
        with_raw addr (fun fd ->
            Frame.write fd "{\"id\": 42, \"op\": \"ping\"}";
            let doc = read_doc fd in
            Alcotest.(check bool) "id" true (Json.member "id" doc = Some (Json.Int 42));
            Alcotest.(check bool) "pong" true
              (Json.member "result" doc = Some (Json.Str "pong"))) );
  ]

let listener_tests =
  List.concat_map
    (fun (front, start) ->
      List.mapi
        (fun i (name, case) ->
          Alcotest.test_case (Printf.sprintf "listener: %s (%s)" name front) `Quick (fun () ->
              start ~max_connections:1 (Printf.sprintf "front-%s-%d" front i) case))
        listener_cases)
    front_ends

let tests =
  [
    Alcotest.test_case "ring: deterministic assignment" `Quick
      test_ring_determinism;
    Alcotest.test_case "ring: balanced shares" `Quick test_ring_balance;
    Alcotest.test_case "ring: bounded remapping on grow" `Quick
      test_ring_bounded_remapping;
    Alcotest.test_case "persist: store round-trip" `Quick test_persist_roundtrip;
    test_persist_damage;
    Alcotest.test_case "persist: store from another model skipped" `Quick
      test_persist_other_model;
    Alcotest.test_case "persist: corruption tolerated" `Quick
      test_persist_corruption_tolerated;
    Alcotest.test_case "daemon: store survives restart" `Quick
      test_server_store_roundtrip;
    Alcotest.test_case "fleet: bytes, failover, drain" `Slow
      test_fleet_byte_equality_failover_drain;
    Alcotest.test_case "fleet: refusing shard retried" `Quick
      (test_router_dead_shard "refuse" (Server.Unix_sock (sock_path "refuse-dead")));
    Alcotest.test_case "fleet: finished handlers reaped" `Quick
      test_fleet_reaps_handlers;
    Alcotest.test_case "fleet: stale link reconnects" `Quick
      test_router_stale_link;
    Alcotest.test_case "fleet: links bounded by concurrency" `Quick
      test_router_link_bound;
    Alcotest.test_case "fleet: unresolvable shard fails over" `Quick
      (test_router_dead_shard "unresolvable" (Server.Tcp ("", 1)));
    Alcotest.test_case "fleet: stop lets a forward reply" `Quick
      test_router_stop_drains;
    Alcotest.test_case "fleet: stop ends a busy client's stream" `Quick
      test_router_stop_busy_client;
  ]
  @ listener_tests
