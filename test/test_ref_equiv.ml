(* Packed-array implementations vs the record-based reference models.

   The production cache ([lib/mem/cache.ml]) and TAGE
   ([lib/bpred/tage.ml]) were rewritten onto flat packed int arrays with
   inlined folded-history arithmetic for speed; [Ref_cache] and
   [Ref_tage] preserve the original record-based implementations. These
   properties drive both sides of each pair through identical
   multi-hundred-thousand-operation streams (millions of operations
   across the QCheck cases) and require bit-identical observable
   behavior: per-operation outcomes, per-branch predictions,
   resident-tag listings, statistics counters, and state signatures.
   The paged simulated memory ([lib/core/memory.ml]) is bonded the same
   way to the flat [int array] it replaced.

   The streams are derived from a generated PRNG seed rather than a
   generated operation list: QCheck shrinks the seed (useless) but can
   still vary it widely, and a seed buys a million-op stream without a
   million-cell generated structure. *)

module Cache = Sempe_mem.Cache
module Memory = Sempe_core.Memory
module Tage = Sempe_bpred.Tage
module Stats = Sempe_util.Stats

let qtest = QCheck_alcotest.to_alcotest

(* ---- cache vs Ref_cache ---- *)

(* A few shapes from direct-mapped to 8-way; small enough that random
   addresses collide, evict, and exercise LRU ranks. *)
let cache_shapes =
  [
    { Cache.name = "equiv"; size_bytes = 4 * 1024; line_bytes = 64; ways = 4 };
    { Cache.name = "equiv"; size_bytes = 2 * 1024; line_bytes = 32; ways = 1 };
    { Cache.name = "equiv"; size_bytes = 16 * 1024; line_bytes = 64; ways = 8 };
    { Cache.name = "equiv"; size_bytes = 1024; line_bytes = 16; ways = 2 };
  ]

let cache_ops_per_case = 150_000

let check_cache_equal ~ctx cfg cache ref_cache =
  let got = Cache.signature cache and want = Ref_cache.signature ref_cache in
  if got <> want then
    QCheck.Test.fail_reportf "%s: signature %d <> reference %d" ctx got want;
  for s = 0 to Cache.num_sets cache - 1 do
    if Cache.resident_tags cache s <> Ref_cache.resident_tags ref_cache s then
      QCheck.Test.fail_reportf "%s: resident_tags diverge in set %d" ctx s
  done;
  let got = Stats.to_list (Cache.stats cache)
  and want = Stats.to_list (Ref_cache.stats ref_cache) in
  if got <> want then
    QCheck.Test.fail_reportf "%s: stats diverge (%s)" ctx cfg.Cache.name

let cache_equiv_prop seed =
  let rand = Random.State.make [| seed; 0xcac4e |] in
  List.iter
    (fun cfg ->
      let cache = Cache.create cfg and ref_cache = Ref_cache.create cfg in
      (* Addresses drawn from 4x the cache's reach: plenty of hits, plenty
         of conflict evictions. *)
      let addr_range = 4 * cfg.Cache.size_bytes in
      for op = 1 to cache_ops_per_case do
        let addr = Random.State.int rand addr_range in
        (match Random.State.int rand 100 with
        | r when r < 70 ->
          let write = Random.State.bool rand in
          let got = Cache.access cache ~addr ~write
          and want = Ref_cache.access ref_cache ~addr ~write in
          let hit = got = Cache.Hit and ref_hit = want = Ref_cache.Hit in
          if hit <> ref_hit then
            QCheck.Test.fail_reportf "op %d: access %d diverges" op addr
        | r when r < 85 ->
          let got = Cache.prefetch_fill cache ~addr
          and want = Ref_cache.prefetch_fill ref_cache ~addr in
          if got <> want then
            QCheck.Test.fail_reportf "op %d: prefetch_fill %d diverges" op addr
        | r when r < 99 ->
          let got = Cache.probe cache ~addr
          and want = Ref_cache.probe ref_cache ~addr in
          if got <> want then
            QCheck.Test.fail_reportf "op %d: probe %d diverges" op addr
        | _ ->
          Cache.flush cache;
          Ref_cache.flush ref_cache);
        (* Periodic deep check so a divergence is caught near its cause,
           not a hundred thousand ops later. *)
        if op mod 25_000 = 0 then
          check_cache_equal ~ctx:(Printf.sprintf "after op %d" op) cfg cache
            ref_cache
      done;
      check_cache_equal ~ctx:"final" cfg cache ref_cache)
    cache_shapes;
  true

(* ---- TAGE vs Ref_tage ---- *)

let tage_configs =
  [
    Tage.default_config;
    (* Tiny tables force tag aliasing, allocation pressure, and constant
       usefulness decay. *)
    { Tage.num_tables = 4; table_bits = 6; tag_bits = 7; min_history = 2;
      max_history = 32; base_bits = 8 };
  ]

let tage_branches_per_case = 200_000

let tage_equiv_prop seed =
  let rand = Random.State.make [| seed; 0x7a6e |] in
  List.iter
    (fun config ->
      let packed = Tage.create ~config () in
      let reference = Ref_tage.create ~config () in
      (* A pool of branch sites, each with a behavior class: biased
         random, loop-like (taken except every k-th), or
         history-correlated — the mix populates providers at different
         history lengths. *)
      let sites = 48 in
      let pcs = Array.init sites (fun _ -> Random.State.int rand 0x100000) in
      let kinds = Array.init sites (fun _ -> Random.State.int rand 3) in
      let periods = Array.init sites (fun _ -> 2 + Random.State.int rand 7) in
      let visits = Array.make sites 0 in
      let last = ref false in
      for step = 1 to tage_branches_per_case do
        let i = Random.State.int rand sites in
        let pc = pcs.(i) in
        visits.(i) <- visits.(i) + 1;
        let taken =
          match kinds.(i) with
          | 0 -> Random.State.int rand 10 < 7
          | 1 -> visits.(i) mod periods.(i) <> 0
          | _ -> !last = (pc land 1 = 0)
        in
        last := taken;
        let p = packed.Sempe_bpred.Predictor.predict ~pc in
        let r = Ref_tage.predict reference ~pc in
        if p <> r then
          QCheck.Test.fail_reportf "step %d: prediction diverges at pc %#x"
            step pc;
        packed.Sempe_bpred.Predictor.update ~pc ~taken;
        Ref_tage.update reference ~pred:r ~pc ~taken;
        if step mod 20_000 = 0 then begin
          let ps = packed.Sempe_bpred.Predictor.snapshot_signature () in
          let rs = Ref_tage.signature reference in
          if ps <> rs then
            QCheck.Test.fail_reportf "step %d: signature %d <> reference %d"
              step ps rs
        end;
        (* Rare resets keep the initial-state path equivalent too. *)
        if Random.State.int rand 60_000 = 0 then begin
          packed.Sempe_bpred.Predictor.reset ();
          Ref_tage.reset reference
        end
      done;
      let ps = packed.Sempe_bpred.Predictor.snapshot_signature () in
      let rs = Ref_tage.signature reference in
      if ps <> rs then
        QCheck.Test.fail_reportf "final signature %d <> reference %d" ps rs)
    tage_configs;
  true

(* ---- paged memory vs a flat int array ---- *)

(* Sizes that are not page multiples (a short last page), one that is,
   one smaller than a page, and an empty memory. *)
let memory_sizes =
  [ (3 * Memory.page_size) + 77; (2 * Memory.page_size) + 1; 2 * Memory.page_size;
    Memory.page_size - 1; 5; 0 ]

let memory_ops_per_case = 1_500

let memory_equiv_prop seed =
  let rand = Random.State.make [| seed; 0x9a9e |] in
  List.iter
    (fun words ->
      let mem = Memory.create words and flat = Array.make words 0 in
      let fail op fmt = QCheck.Test.fail_reportf ("words %d, op %d: " ^^ fmt) words op in
      (* Half the addresses sit within two words of a page boundary. *)
      let addr () =
        if Random.State.bool rand then
          let page = Random.State.int rand (words / Memory.page_size + 1) in
          let a = (page * Memory.page_size) + Random.State.int rand 5 - 2 in
          max 0 (min (words - 1) a)
        else Random.State.int rand words
      in
      (* Zero often, so pages get written back to all-zero. *)
      let value () =
        if Random.State.int rand 3 = 0 then 0 else Random.State.bits rand - (1 lsl 29)
      in
      let check_whole op =
        if Memory.sub mem 0 words <> flat then fail op "whole image diverges";
        let nz = ref [] in
        Memory.iter_nonzero (fun i v -> nz := (i, v) :: !nz) mem;
        let want = ref [] in
        Array.iteri (fun i v -> if v <> 0 then want := (i, v) :: !want) flat;
        if !nz <> !want then fail op "iter_nonzero diverges";
        (* Contents equality, whatever the page allocation history. *)
        let fresh = Memory.create words in
        Memory.blit_array flat 0 fresh 0 words;
        if not (Memory.equal mem fresh && Memory.equal fresh mem) then
          fail op "not equal to a fresh copy of its contents";
        if words > 0 then begin
          let a = addr () in
          Memory.set fresh a (Memory.get fresh a + 1);
          if Memory.equal mem fresh then fail op "equal despite word %d differing" a
        end
      in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      if
        not
          (raises (fun () -> Memory.get mem words)
          && raises (fun () -> Memory.get mem (-1))
          && raises (fun () -> Memory.set mem words 1)
          && raises (fun () -> Memory.sub mem 0 (words + 1)))
      then fail 0 "an out-of-bounds access did not raise";
      if words > 0 then
        for op = 1 to memory_ops_per_case do
          (match Random.State.int rand 100 with
           | r when r < 35 ->
             let a = addr () in
             if Memory.get mem a <> flat.(a) then fail op "get %d diverges" a
           | r when r < 75 ->
             let a = addr () and v = value () in
             Memory.set mem a v;
             flat.(a) <- v
           | r when r < 85 ->
             let dst = addr () in
             let len = Random.State.int rand (min (words - dst) (2 * Memory.page_size) + 1) in
             let src =
               if Random.State.bool rand then Array.make (len + 3) 0
               else Array.init (len + 3) (fun _ -> value ())
             in
             Memory.blit_array src 3 mem dst len;
             Array.blit src 3 flat dst len
           | r when r < 99 ->
             let pos = addr () in
             let len = Random.State.int rand (min (words - pos) (2 * Memory.page_size) + 1) in
             if Memory.sub mem pos len <> Array.sub flat pos len then
               fail op "sub %d %d diverges" pos len
           | _ -> check_whole op)
        done;
      check_whole memory_ops_per_case)
    memory_sizes;
  true

let test_memory_zero_pages () =
  let words = (4 * Memory.page_size) + 10 in
  let m = Memory.create words in
  Memory.set m 5 0;
  Memory.blit_array (Array.make 100 0) 0 m Memory.page_size 100;
  Alcotest.(check int) "zero writes allocate nothing" 0 (Memory.allocated_pages m);
  Memory.set m (words - 1) 9;
  Alcotest.(check int) "one write, one page" 1 (Memory.allocated_pages m);
  Alcotest.(check bool) "written page differs from empty" false
    (Memory.equal m (Memory.create words));
  Memory.set m (words - 1) 0;
  Alcotest.(check bool) "written-then-zeroed page equals unwritten" true
    (Memory.equal m (Memory.create words));
  Alcotest.(check bool) "sizes differ" false
    (Memory.equal (Memory.create words) (Memory.create (words + 1)))

let tests =
  [
    qtest
      (QCheck.Test.make ~name:"packed cache equals record-based reference"
         ~count:4 QCheck.small_nat cache_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"packed TAGE equals record-based reference"
         ~count:4 QCheck.small_nat tage_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"paged memory equals flat-array reference"
         ~count:10 QCheck.small_nat memory_equiv_prop);
    Alcotest.test_case "paged memory: zero pages" `Quick test_memory_zero_pages;
  ]
