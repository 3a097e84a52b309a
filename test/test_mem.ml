(* Memory subsystem: caches, prefetchers, hierarchy and the scratchpad. *)

open Sempe_mem

let toy_config ?(ways = 2) ?(size = 1024) () =
  { Cache.size_bytes = size; line_bytes = 64; ways }

let test_cache_miss_then_hit () =
  let c = Cache.create (toy_config ()) in
  Alcotest.(check bool) "cold miss" true (Cache.access c ~addr:0 ~write:false = Cache.Miss);
  Alcotest.(check bool) "then hit" true (Cache.access c ~addr:32 ~write:false = Cache.Hit);
  Alcotest.(check int) "stats accesses" 2 (Cache.accesses c);
  Alcotest.(check int) "stats misses" 1 (Cache.misses c)

let test_cache_lru () =
  let c = Cache.create (toy_config ~ways:2 ~size:256 ()) in
  (* 2 sets; set 0 holds lines 0, 2, 4... Install 0 and 2, touch 0, then 4
     must evict 2 (the LRU). *)
  let line k = k * 64 in
  ignore (Cache.access c ~addr:(line 0) ~write:false);
  ignore (Cache.access c ~addr:(line 2) ~write:false);
  ignore (Cache.access c ~addr:(line 0) ~write:false);
  ignore (Cache.access c ~addr:(line 4) ~write:false);
  Alcotest.(check bool) "0 kept" true (Cache.probe c ~addr:(line 0));
  Alcotest.(check bool) "2 evicted" false (Cache.probe c ~addr:(line 2));
  Alcotest.(check bool) "4 present" true (Cache.probe c ~addr:(line 4))

let test_cache_probe_nondestructive () =
  let c = Cache.create (toy_config ()) in
  ignore (Cache.probe c ~addr:0);
  Alcotest.(check int) "probe not counted" 0 (Cache.accesses c);
  Alcotest.(check bool) "still absent" true (Cache.access c ~addr:0 ~write:false = Cache.Miss)

let test_cache_prefetch_fill () =
  let c = Cache.create (toy_config ()) in
  Alcotest.(check bool) "installed" true (Cache.prefetch_fill c ~addr:0);
  Alcotest.(check bool) "already present" false (Cache.prefetch_fill c ~addr:0);
  Alcotest.(check bool) "prefetch hit" true (Cache.access c ~addr:0 ~write:false = Cache.Hit);
  Alcotest.(check int) "prefetch counted" 1 (Cache.prefetch_fills c)

let test_cache_flush_and_signature () =
  let c = Cache.create (toy_config ()) in
  let empty_sig = Cache.signature c in
  ignore (Cache.access c ~addr:0 ~write:false);
  Alcotest.(check bool) "signature changed" true (Cache.signature c <> empty_sig);
  Cache.flush c;
  Alcotest.(check int) "signature restored" empty_sig (Cache.signature c)

let prop_cache_resident_after_access =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"line resident immediately after access" ~count:200
       QCheck.(small_list (int_range 0 100000))
       (fun addrs ->
         let c = Cache.create (toy_config ()) in
         List.for_all
           (fun addr ->
             ignore (Cache.access c ~addr ~write:false);
             Cache.probe c ~addr)
           addrs))

let prop_cache_occupancy_bounded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"set occupancy bounded by ways" ~count:100
       QCheck.(small_list (int_range 0 100000))
       (fun addrs ->
         let c = Cache.create (toy_config ~ways:2 ()) in
         List.iter (fun addr -> ignore (Cache.access c ~addr ~write:false)) addrs;
         let ok = ref true in
         for s = 0 to Cache.num_sets c - 1 do
           if List.length (Cache.resident_tags c s) > 2 then ok := false
         done;
         !ok))

(* Collect the count-based candidate buffer into a list for comparison. *)
let stride_observe p ~pc ~addr =
  let n = Prefetch.Stride.observe p ~pc ~addr in
  List.init n (Prefetch.Stride.candidate p)

let stream_observe_miss p ~addr =
  let n = Prefetch.Stream.observe_miss p ~addr in
  List.init n (Prefetch.Stream.candidate p)

let test_stride_prefetcher () =
  let p = Prefetch.Stride.create ~degree:1 () in
  Alcotest.(check (list int)) "first access" [] (stride_observe p ~pc:4 ~addr:1000);
  Alcotest.(check (list int)) "stride set" [] (stride_observe p ~pc:4 ~addr:1064);
  Alcotest.(check (list int)) "confidence 1" [] (stride_observe p ~pc:4 ~addr:1128);
  Alcotest.(check (list int)) "confident" [ 1256 ] (stride_observe p ~pc:4 ~addr:1192);
  (* a stride break resets confidence *)
  Alcotest.(check (list int)) "break" [] (stride_observe p ~pc:4 ~addr:5000)

let test_stride_zero_never_prefetches () =
  let p = Prefetch.Stride.create () in
  for _ = 1 to 10 do
    Alcotest.(check (list int)) "same address" [] (stride_observe p ~pc:8 ~addr:64)
  done

let test_stream_prefetcher () =
  let p = Prefetch.Stream.create ~degree:2 () in
  Alcotest.(check (list int)) "first miss" [] (stream_observe_miss p ~addr:0);
  Alcotest.(check (list int)) "stream detected" [ 128; 192 ]
    (stream_observe_miss p ~addr:64);
  Alcotest.(check (list int)) "stream continues" [ 192; 256 ]
    (stream_observe_miss p ~addr:128)

let test_hierarchy_latencies () =
  let h = Hierarchy.create () in
  let cfg = Hierarchy.config_of h in
  Alcotest.(check int) "cold fetch = l1+l2 miss path"
    (cfg.Hierarchy.lat_l1 + cfg.Hierarchy.lat_mem)
    (Hierarchy.inst_fetch h ~addr:0);
  Alcotest.(check int) "warm fetch = l1 hit" cfg.Hierarchy.lat_l1
    (Hierarchy.inst_fetch h ~addr:8);
  let cold = Hierarchy.data_access h ~pc:0 ~addr:4096 ~write:false in
  Alcotest.(check int) "cold load" (cfg.Hierarchy.lat_l1 + cfg.Hierarchy.lat_mem) cold;
  let warm = Hierarchy.data_access h ~pc:0 ~addr:4096 ~write:false in
  Alcotest.(check int) "warm load" cfg.Hierarchy.lat_l1 warm;
  (* L2 keeps the line after a DL1 eviction-free fill: an il1 fetch of the
     same line hits L2, not DRAM. *)
  Cache.flush (Hierarchy.dl1 h);
  let l2_hit = Hierarchy.data_access h ~pc:0 ~addr:4096 ~write:false in
  Alcotest.(check int) "l2 hit path" (cfg.Hierarchy.lat_l1 + cfg.Hierarchy.lat_l2) l2_hit

let test_hierarchy_stride_effect () =
  let h = Hierarchy.create () in
  (* Walk sequentially by line: after training, later lines should be
     prefetched into DL1, so miss count stays well below line count. *)
  for k = 0 to 63 do
    ignore (Hierarchy.data_access h ~pc:12 ~addr:(k * 64) ~write:false)
  done;
  let misses = Cache.misses (Hierarchy.dl1 h) in
  Alcotest.(check bool)
    (Printf.sprintf "prefetcher cut misses (%d < 40)" misses)
    true (misses < 40)

let test_spm_accounting () =
  let spm = Spm.create () in
  let per_reg = Spm.bytes_per_reg spm in
  let full = Spm.push_full_save spm in
  Alcotest.(check int) "full save cycles" ((per_reg * 48 + 63) / 64) full;
  Alcotest.(check int) "depth" 1 (Spm.depth spm);
  let nt = Spm.save_modified spm ~modified:10 in
  Alcotest.(check int) "nt save cycles" ((per_reg * 10 + 63) / 64) nt;
  let restore = Spm.restore spm ~modified_union:12 in
  Alcotest.(check int) "restore cycles" ((per_reg * 12 + 63) / 64) restore;
  Alcotest.(check int) "depth back" 0 (Spm.depth spm);
  Alcotest.(check int) "high water" 1 (Spm.high_water spm);
  Alcotest.(check int) "bytes moved" (per_reg * (48 + 10 + 12))
    (Spm.bytes_moved spm)

let test_spm_overflow () =
  let spm = Spm.create ~config:{ Spm.default_config with Spm.max_snapshots = 2 } () in
  ignore (Spm.push_full_save spm);
  ignore (Spm.push_full_save spm);
  Alcotest.check_raises "overflow" Spm.Overflow (fun () ->
      ignore (Spm.push_full_save spm))

let tests =
  [
    Alcotest.test_case "cache miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache lru" `Quick test_cache_lru;
    Alcotest.test_case "probe nondestructive" `Quick test_cache_probe_nondestructive;
    Alcotest.test_case "prefetch fill" `Quick test_cache_prefetch_fill;
    Alcotest.test_case "flush and signature" `Quick test_cache_flush_and_signature;
    prop_cache_resident_after_access;
    prop_cache_occupancy_bounded;
    Alcotest.test_case "stride prefetcher" `Quick test_stride_prefetcher;
    Alcotest.test_case "stride zero" `Quick test_stride_zero_never_prefetches;
    Alcotest.test_case "stream prefetcher" `Quick test_stream_prefetcher;
    Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
    Alcotest.test_case "hierarchy stride effect" `Quick test_hierarchy_stride_effect;
    Alcotest.test_case "spm accounting" `Quick test_spm_accounting;
    Alcotest.test_case "spm overflow" `Quick test_spm_overflow;
  ]
