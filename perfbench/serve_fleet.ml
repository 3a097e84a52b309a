(* serve-fleet: a [Router] over two in-process [Server] shards with one
   simulation worker each, driven by one closed-loop client connection.
   Three of every four requests repeat a prewarmed hot set of eight
   simulate/sample requests; the fourth is a never-repeated cheap
   simulate (RSA under SeMPE with a distinct key, so its cost does not
   depend on the key). Each shard's result cache is small enough that
   the miss stream evicts. *)

module Json = Sempe_obs.Json
module Api = Sempe_serve.Api
module Server = Sempe_serve.Server
module Router = Sempe_serve.Router
module Client = Sempe_serve.Client
module Scheme = Sempe_core.Scheme
module Harness = Sempe_workloads.Harness
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Djpeg = Sempe_workloads.Djpeg
module Rsa = Sempe_workloads.Rsa
module Rng = Sempe_util.Rng

let shards = 2
let result_entries = 12
let hot_size = 8

(* Ops per rotation (each hot request three times, eight misses), and
   the rate a reference host completes them at (sizes a run, see
   [Measure.ops_for]). *)
let round = 4 * hot_size
let rate = 400.

let simulate scheme workload = Api.Simulate { scheme; workload; strict_oob = false }

let sample workload =
  Api.Sample
    {
      scheme = Scheme.Sempe;
      workload;
      strict_oob = false;
      params = { Api.interval = 20_000; coverage = 0.10; warmup = 2_000 };
    }

(* Two Fibonacci and six djpeg requests, so the hit-latency boundary
   between the cheap-to-key Fibonacci hits and the djpeg hits (whose
   cache key compiles djpeg) sits at the 25th percentile of hits, well
   away from the hit median. *)
let hot_set rng =
  let fib scheme =
    simulate scheme
      (Api.Microbench
         { kernel = "fibonacci"; width = 4; iters = 30 + Rng.int rng 4; leaf = 1 + Rng.int rng 5 })
  in
  let djpeg format blocks = Api.Djpeg { format; blocks; seed = Rng.int rng 1_000_000 } in
  let hot =
    [|
      fib Scheme.Sempe;
      fib Scheme.Baseline;
      simulate Scheme.Sempe (djpeg "PPM" 8);
      simulate Scheme.Sempe (djpeg "GIF" 8);
      simulate Scheme.Baseline (djpeg "PPM" 8);
      simulate Scheme.Sempe (djpeg "BMP" 8);
      sample (djpeg "PPM" 64);
      sample (djpeg "GIF" 32);
    |]
  in
  Rng.shuffle rng hot;
  hot

let miss key = simulate Scheme.Sempe (Api.Rsa { key })

type fleet = {
  servers : Server.t array;
  router : Router.t;
  conn : Client.conn;
  hot : Api.request array;
  hot_bytes : string array;  (** the prewarm replies *)
  keys : int array;  (** the miss stream: a seed-derived key permutation *)
  mutable failed : int;  (** prewarm errors *)
}

let render = Json.to_string

let start ~seed () =
  let rng = Rng.create seed in
  let hot = hot_set rng in
  let keys = Array.init (1 lsl Rsa.key_bits) Fun.id in
  Rng.shuffle rng keys;
  let sock name = Server.Unix_sock (Printf.sprintf "%s/%d-%s.sock" (Measure.out_dir ()) (Unix.getpid ()) name) in
  let config = { Server.default_config with workers = 1; result_entries } in
  let servers = Array.init shards (fun i -> Server.start ~config (sock (Printf.sprintf "shard%d" i))) in
  let router =
    Router.start ~shards:(Array.to_list (Array.map Server.addr servers)) (sock "router")
  in
  let conn = Client.connect (Router.addr router) in
  let f = { servers; router; conn; hot; hot_bytes = Array.make hot_size ""; keys; failed = 0 } in
  Array.iteri
    (fun i req ->
      match Client.call_cached conn req with
      | Ok (doc, false) -> f.hot_bytes.(i) <- render doc
      | Ok (_, true) | Error _ -> f.failed <- f.failed + 1)
    hot;
  f

let stop f =
  Client.close f.conn;
  Router.stop f.router;
  Array.iter Server.stop f.servers

(* Op [i] of the deterministic sequence: positions 0..2 of every group
   of four cycle through the hot set, position 3 takes the next key of
   the miss stream. *)
let request f i =
  if i mod 4 = 3 then (miss f.keys.(i / 4), None)
  else
    let h = ((3 * (i / 4)) + (i mod 4)) mod hot_size in
    (f.hot.(h), Some h)

let int_at path doc =
  match List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) path with
  | Some (Json.Int n) -> n
  | _ -> 0

type reply = {
  lat : float;
  hot : bool;
  ok : bool;  (** cache flag as the class predicts; hot bytes as prewarmed *)
  instrs : int;  (** simulated by a miss *)
  miss_reply : (Api.request * string) option;  (** kept for the batch check *)
}

let issue f i =
  let req, h = request f i in
  let r, lat = Measure.time (fun () -> Client.call_cached f.conn req) in
  match (r, h) with
  | Ok (doc, true), Some h ->
    { lat; hot = true; ok = render doc = f.hot_bytes.(h); instrs = 0; miss_reply = None }
  | Ok (doc, false), None ->
    { lat; hot = false; ok = true; instrs = int_at [ "report"; "instructions" ] doc; miss_reply = Some (req, render doc) }
  | _ -> { lat; hot = h <> None; ok = false; instrs = 0; miss_reply = None }

(* served == batch: every distinct reply against [Api.perform]. *)
let batch_mismatches f misses =
  let differs req bytes = render (Api.perform ~workers:1 req) <> bytes in
  let hot_bad = ref 0 in
  Array.iteri (fun i req -> if differs req f.hot_bytes.(i) then incr hot_bad) f.hot;
  (!hot_bad, List.length (List.filter (fun (req, bytes) -> differs req bytes) misses))

let timed ~seed ~ops ~setup_reps =
  let f, setup_s = Measure.setup_repeats ~reps:setup_reps ~teardown:stop (start ~seed) in
  Fun.protect ~finally:(fun () -> stop f) @@ fun () ->
  let misses = ref [] and bad = ref f.failed in
  Gc.full_major ();
  let ops =
    Measure.closed_loop ~ops ~probe_every:4 (fun i ->
        let r = issue f i in
        if not r.ok then incr bad;
        Option.iter (fun m -> misses := m :: !misses) r.miss_reply;
        (r.lat, r.instrs))
  in
  let hot_bad, miss_bad = batch_mismatches f !misses in
  (* A hot reply that differs from batch output poisons every op that
     returned it: three of every four ops cycle the hot set evenly. *)
  let hot_ops = 3 * List.length ops / 4 in
  let failed = !bad + miss_bad + (hot_bad * hot_ops / hot_size) in
  (List.length ops, failed, Measure.end_to_end ~setup_s ~round ops)

(* ---- the traced run ---- *)

let counters f =
  let shard path = Array.fold_left (fun a s -> a + int_at path (Server.stats_json s)) 0 f.servers in
  let r = Router.stats_json f.router in
  [|
    shard [ "result_cache"; "hits" ];
    shard [ "result_cache"; "misses" ];
    shard [ "executed" ];
    shard [ "result_cache"; "evictions" ];
    int_at [ "forwarded" ] r;
    int_at [ "retried" ] r;
  |]

let source_of = function
  | Api.Simulate { scheme; workload; _ } | Api.Sample { scheme; workload; _ } -> (
    match workload with
    | Api.Microbench { kernel; width; iters; _ } ->
      let k = Option.get (Kernels.by_name kernel) in
      (scheme, MB.program ~ct:(scheme = Scheme.Cte) { MB.kernel = k; width; iters })
    | Api.Djpeg { format; _ } ->
      let fmt = List.find (fun d -> Djpeg.format_name d = format) Djpeg.all_formats in
      (scheme, Djpeg.program fmt)
    | Api.Rsa _ -> (scheme, Rsa.program))
  | _ -> invalid_arg "source_of"

(* Per-call cost of something too quick to time once. *)
let per_call ?op name n g =
  snd (Measure.span ?op name (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (g ())) done))
  /. float_of_int n

let traced ~seed ~smoke =
  let f = start ~seed () in
  Fun.protect ~finally:(fun () -> stop f) @@ fun () ->
  let failed = ref f.failed in
  let check b = if not b then incr failed in
  let seq_len = if smoke then 32 else 640 in
  (* The workload's own sequence under the stats op: the counter deltas
     are exact, since one connection issues everything in order. *)
  let before = counters f in
  let seq, with_spans =
    Measure.time (fun () ->
        List.init seq_len (fun i -> fst (Measure.span ~op:i "serve.op" (fun () -> issue f i))))
  in
  let after = counters f in
  List.iter (fun r -> check r.ok) seq;
  let delta = Array.mapi (fun k a -> float_of_int (a - before.(k))) after in
  check (delta.(0) = float_of_int (3 * seq_len / 4) && delta.(1) = float_of_int (seq_len / 4));
  (* The same sequence shape again, untraced, for the tracing overhead. *)
  let untraced = snd (Measure.time (fun () -> List.init seq_len (fun i -> issue f (seq_len + i)))) in
  let p50_ms hot =
    1e3 *. Measure.median (List.filter_map (fun r -> if r.hot = hot then Some r.lat else None) seq)
  in
  (* Hit dissection, each hot request against its owning shard. *)
  let ring = Router.Ring.create ~replicas:Router.default_config.Router.replicas shards in
  let direct = Array.map (fun s -> Client.connect (Server.addr s)) f.servers in
  Fun.protect ~finally:(fun () -> Array.iter Client.close direct) @@ fun () ->
  let reps = if smoke then 2 else 40 and n = 20 in
  let rows =
    List.concat
      (List.init reps (fun r ->
           List.init hot_size (fun h ->
               let op = (r * hot_size) + h in
               let req = f.hot.(h) in
               let shard = Router.Ring.assign ring (Api.route_key req) in
               let result = Json.of_string f.hot_bytes.(h) in
               let fields = match Api.request_to_json req with Json.Obj fs -> fs | _ -> [] in
               let req_doc = Json.Obj (("id", Json.Int 1) :: fields) in
               let reply_doc =
                 Json.Obj [ ("id", Json.Int 1); ("ok", Json.Bool true); ("cached", Json.Bool true); ("result", result) ]
               in
               let req_bytes = render req_doc and reply_bytes = render reply_doc in
               fst
                 (Measure.span ~op "serve.hit_dissection" (fun () ->
                      let decode =
                        per_call ~op "serve.decode" n (fun () ->
                            ignore (Api.request_of_json (Json.of_string_strict req_bytes));
                            Json.of_string_strict reply_bytes)
                      in
                      let encode =
                        per_call ~op "serve.encode" n (fun () -> render req_doc ^ render reply_doc)
                      in
                      let _, key = Measure.span ~op "serve.cache_key" (fun () -> Api.cache_key req) in
                      let _, ping = Measure.span ~op "serve.ping" (fun () -> Client.ping direct.(shard)) in
                      let d, direct_s =
                        Measure.span ~op "serve.direct_hit" (fun () -> Client.call_cached direct.(shard) req)
                      in
                      let rt, routed =
                        Measure.span ~op "router.routed_hit" (fun () -> Client.call_cached f.conn req)
                      in
                      List.iter
                        (function
                          | Ok (doc, true) -> check (render doc = f.hot_bytes.(h))
                          | _ -> check false)
                        [ d; rt ];
                      let _, rping = Measure.span ~op "router.ping" (fun () -> Client.ping f.conn) in
                      let route = per_call ~op "router.route_key" n (fun () -> Api.route_key req) in
                      let _, fresh =
                        Measure.span ~op "serve.fresh_connection" (fun () ->
                            let c = Client.connect (Server.addr f.servers.(shard)) in
                            ignore (Client.ping c);
                            Client.close c)
                      in
                      let build =
                        let scheme, src = source_of req in
                        snd (Measure.span ~op "lang.build" (fun () -> Harness.build scheme src))
                      in
                      [| decode; encode; key; ping; direct_s; routed; rping; route; fresh -. ping; build |])))))
  in
  let col k = Measure.median (List.map (fun r -> r.(k)) rows) in
  let decode = col 0 and encode = col 1 and key = col 2 and ping = col 3 in
  let direct_hit = col 4 and routed = col 5 and rping = col 6 and route = col 7 and connect = col 8 in
  (* Miss dissection on fresh keys from the far end of the permutation. *)
  let nkeys = Array.length f.keys in
  let miss_reps = if smoke then 3 else 40 in
  let misses =
    List.init miss_reps (fun m ->
        let k1 = f.keys.(nkeys - 1 - (2 * m)) and k2 = f.keys.(nkeys - 2 - (2 * m)) in
        let _, perform = Measure.span ~op:m "serve.perform" (fun () -> Api.perform ~workers:1 (miss k1)) in
        let r, lat = Measure.span ~op:m "serve.miss" (fun () -> Client.call_cached f.conn (miss k2)) in
        check (match r with Ok (_, false) -> true | _ -> false);
        (perform, lat))
  in
  let perform = Measure.median (List.map fst misses) and miss_lat = Measure.median (List.map snd misses) in
  (* The misses commit a few hundred instructions each: per-instruction
     layer figures mean nothing here, only the per-run fixed cost. *)
  let fixed = Layers.fixed ~reps:(if smoke then 2 else 9) (Layers.tiny ()) in
  check fixed.Layers.consistent;
  let simulated path =
    List.fold_left
      (fun a r -> match r.miss_reply with Some (_, b) -> a + int_at path (Json.of_string b) | None -> a)
      0 seq
  in
  let ms x = x *. 1e3 and us x = x *. 1e6 in
  let hit_parts = ping +. decode +. key +. encode in
  let route_parts = direct_hit +. rping +. route +. connect in
  ( seq_len,
    !failed,
    [
        Measure.metric "pipeline.instructions" "count" (float_of_int (simulated [ "report"; "instructions" ]));
        Measure.metric "pipeline.cycles" "count" (float_of_int (simulated [ "report"; "cycles" ]));
        Measure.metric "workloads.run_fixed_ms" "ms" (ms fixed.Layers.harness);
        Measure.metric "lang.build_ms" "ms" (ms (col 9));
        Measure.metric "serve.hit_p50_ms" "ms" (p50_ms true);
        Measure.metric "serve.miss_p50_ms" "ms" (p50_ms false);
        Measure.metric "serve.decode_us" "us" (us decode);
        Measure.metric "serve.cache_key_ms" "ms" (ms key);
        Measure.metric "serve.encode_us" "us" (us encode);
        Measure.metric "serve.ping_ms" "ms" (ms ping);
        Measure.metric "serve.direct_hit_ms" "ms" (ms direct_hit);
        Measure.metric "router.hop_ms" "ms" (ms (routed -. direct_hit));
        Measure.metric "router.ping_ms" "ms" (ms rping);
        Measure.metric "router.route_key_us" "us" (us route);
        Measure.metric "serve.connect_ms" "ms" (ms connect);
        Measure.metric "serve.perform_ms" "ms" (ms perform);
        Measure.metric "serve.miss_ms" "ms" (ms miss_lat);
        Measure.metric "serve.miss_overhead_ms" "ms" (ms (miss_lat -. perform -. direct_hit));
        Measure.metric "serve.hits" "count" delta.(0);
        Measure.metric "serve.misses" "count" delta.(1);
        Measure.metric "serve.executed" "count" delta.(2);
        Measure.metric "serve.evictions" "count" delta.(3);
        Measure.metric "router.forwarded" "count" delta.(4);
        Measure.metric "router.retried" "count" delta.(5);
        Measure.metric "serve.hit_ratio" "ratio" (delta.(0) /. (delta.(0) +. delta.(1)));
        Measure.metric "reconcile.hit_remainder_pct" "%" (100. *. (direct_hit -. hit_parts) /. direct_hit);
        Measure.metric "reconcile.route_remainder_pct" "%" (100. *. (routed -. route_parts) /. routed);
        Measure.metric "trace.overhead_pct" "%" (100. *. (with_spans -. untraced) /. untraced);
      ] )
