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
   way to the flat [int array] it replaced, and the timing model's
   growable port ring ([lib/pipeline/ports.ml]) to an unbounded table of
   per-cycle use counts ([Ref_ports]). The timing model itself
   ([lib/pipeline/timing.ml]) is bonded to [Ref_timing], the same
   machine written as plain queues and tables, the packed BTB
   ([lib/bpred/btb.ml]) to [Ref_btb], a list of entries per set, and the
   packed ITTAGE ([lib/bpred/ittage.ml]) to [Ref_ittage], entry records
   over a list of recent targets.

   The streams are derived from a generated PRNG seed rather than a
   generated operation list: QCheck shrinks the seed (useless) but can
   still vary it widely, and a seed buys a million-op stream without a
   million-cell generated structure. *)

module Cache = Sempe_mem.Cache
module Memory = Sempe_core.Memory
module Tage = Sempe_bpred.Tage
module Ittage = Sempe_bpred.Ittage
module Ports = Sempe_pipeline.Ports
module Stats = Sempe_util.Stats
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Warm = Sempe_pipeline.Warm
module Uop = Sempe_pipeline.Uop
module Probe = Sempe_pipeline.Probe
module Stall = Sempe_pipeline.Stall
module Instr = Sempe_isa.Instr

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
        let p = Tage.predict packed ~pc in
        let r = Ref_tage.predict reference ~pc in
        if p <> r then
          QCheck.Test.fail_reportf "step %d: prediction diverges at pc %#x"
            step pc;
        if Tage.resolve packed ~pc ~taken <> p then
          QCheck.Test.fail_reportf "step %d: resolve and predict disagree at pc %#x"
            step pc;
        Ref_tage.update reference ~pred:r ~pc ~taken;
        if step mod 20_000 = 0 then begin
          let ps = Tage.signature packed in
          let rs = Ref_tage.signature reference in
          if ps <> rs then
            QCheck.Test.fail_reportf "step %d: signature %d <> reference %d"
              step ps rs
        end;
        (* Rare resets keep the initial-state path equivalent too. *)
        if Random.State.int rand 60_000 = 0 then begin
          Tage.reset packed;
          Ref_tage.reset reference
        end
      done;
      let ps = Tage.signature packed in
      let rs = Ref_tage.signature reference in
      if ps <> rs then
        QCheck.Test.fail_reportf "final signature %d <> reference %d" ps rs)
    tage_configs;
  true

(* ---- BTB vs Ref_btb ---- *)

(* A random geometry (1-8 ways, 1-64 sets) and a stream of updates and
   finds over 8x the entry count. The pcs come from a pool of four per
   entry, so sets overflow and evict, and pcs that share a set differ in
   the bits just above the set index, where a wrong tag shift aliases
   them. *)
let btb_equiv_prop seed =
  let rand = Random.State.make [| seed; 0xb7b |] in
  let ways = 1 + Random.State.int rand 8 in
  let entries = ways lsl Random.State.int rand 7 in
  let btb = Sempe_bpred.Btb.create ~entries ~ways () in
  let reference = Ref_btb.create ~entries ~ways in
  let pcs = Array.init (4 * entries) (fun _ -> Random.State.int rand (16 * entries)) in
  for op = 1 to 8 * entries do
    let pc = pcs.(Random.State.int rand (Array.length pcs)) in
    if Random.State.bool rand then begin
      let target = Random.State.int rand 0x10000 in
      Sempe_bpred.Btb.update btb ~pc ~target;
      Ref_btb.update reference ~pc ~target
    end
    else begin
      let got = Sempe_bpred.Btb.find btb ~pc and want = Ref_btb.find reference ~pc in
      if got <> want then
        QCheck.Test.fail_reportf "%d ways x %d entries, op %d: find %d = %d, reference %d"
          ways entries op pc got want
    end
  done;
  true

(* ---- ITTAGE vs Ref_ittage ---- *)

(* Resets come only in the first half of a case, and the second half
   alone is longer than the usefulness aging period (65,536 updates), so
   every case ages its entries at least once. *)
let ittage_updates_per_case = 140_000

(* A random geometry (1-6 components of 4-256 entries, 3-10 tag bits,
   histories between 1 and 64, a last-target table of 4-512 entries) and
   a stream over a pool of indirect sites, each monomorphic, cycling
   through its targets, or choosing its target by the previous resolved
   one, so providers come from every history length; few tag bits alias
   the sites, and a few resets restart from the cold state. *)
let ittage_equiv_prop seed =
  let rand = Random.State.make [| seed; 0x177a6e |] in
  let between lo hi = lo + Random.State.int rand (hi - lo + 1) in
  let min_history = between 1 8 in
  let config =
    {
      Ittage.num_tables = between 1 6;
      table_bits = between 2 8;
      tag_bits = between 3 10;
      min_history;
      max_history = between min_history 64;
      base_bits = between 2 9;
    }
  in
  let packed = Ittage.create ~config () and reference = Ref_ittage.create ~config () in
  let fail step fmt =
    QCheck.Test.fail_reportf
      ("%d tables of 2^%d, %d tag bits, history %d-%d, base 2^%d, update %d: " ^^ fmt)
      config.Ittage.num_tables config.Ittage.table_bits config.Ittage.tag_bits
      config.Ittage.min_history config.Ittage.max_history config.Ittage.base_bits step
  in
  let check_signature step =
    let got = Ittage.signature packed and want = Ref_ittage.signature reference in
    if got <> want then fail step "signature %d, reference %d" got want
  in
  let sites = between 4 64 in
  let pcs = Array.init sites (fun _ -> Random.State.int rand 0x100000) in
  let kinds = Array.init sites (fun _ -> Random.State.int rand 3) in
  let targets =
    Array.init sites (fun _ ->
        Array.init (between 1 6) (fun _ -> Random.State.int rand 0x100000))
  in
  let visits = Array.make sites 0 in
  let last = ref 0 in
  for step = 1 to ittage_updates_per_case do
    let i = Random.State.int rand sites in
    let pc = pcs.(i) and ts = targets.(i) in
    let target =
      match kinds.(i) with
      | 0 -> ts.(0)
      | 1 -> ts.(visits.(i) mod Array.length ts)
      | _ -> ts.(!last mod Array.length ts)
    in
    visits.(i) <- visits.(i) + 1;
    last := target;
    let got = Ittage.predict_value packed ~pc
    and want = Ref_ittage.predict_value reference ~pc in
    if got <> want then fail step "pc %#x predicted %d, reference %d" pc got want;
    Ittage.update packed ~pc ~target;
    Ref_ittage.update reference ~pc ~target;
    if step mod 1_000 = 0 then check_signature step;
    if step <= ittage_updates_per_case / 2 && Random.State.int rand 20_000 = 0
    then begin
      Ittage.reset packed;
      Ref_ittage.reset reference;
      check_signature step
    end
  done;
  check_signature ittage_updates_per_case;
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

(* ---- port ring vs Ref_ports ---- *)

let ports_requests_per_cap = 10_000

let ports_equiv_prop seed =
  let rand = Random.State.make [| seed; 0x9047 |] in
  (* The exit of [Ports.alloc] each request takes, read from outside the
     ring: the reference's claims on the cycle and the ring's size before
     the call. The inlined fast path claims a fresh slot or a slot under
     [cap]; a full slot, or a cycle beyond the window, goes to the slow
     path, which grows the ring for the latter. The bond is only as strong
     as the exits its streams reach. *)
  let fresh = ref 0 and under_cap = ref 0 and full = ref 0 and grew = ref 0 in
  for cap = 1 to 8 do
    let ring = Ports.create cap and reference = Ref_ports.create cap in
    let floor = ref 0 in
    for op = 1 to ports_requests_per_cap do
      (* The floor mostly creeps, as fetch does, and sometimes jumps, as
         the ROB-full commit bound does after a miss. *)
      (match Random.State.int rand 100 with
       | r when r < 60 -> ()
       | r when r < 97 -> floor := !floor + Random.State.int rand 4
       | _ -> floor := !floor + Random.State.int rand 2_000);
      (* Most requests crowd just above the floor, so cycles fill to [cap]
         and the walk runs; the rest land up to 100,000 cycles out and
         force growth while crowded cycles are still live. *)
      let above =
        match Random.State.int rand 100 with
        | r when r < 80 -> Random.State.int rand 24
        | r when r < 95 -> Random.State.int rand 1_000
        | r when r < 99 -> Random.State.int rand 20_000
        | _ -> Random.State.int rand 100_001
      in
      let c = !floor + above in
      let claims =
        Option.value (Hashtbl.find_opt reference.Ref_ports.used c) ~default:0
      and slots = Ports.slots ring in
      let got = Ports.alloc ring ~floor:!floor c
      and want = Ref_ports.alloc reference c in
      if got <> want then
        QCheck.Test.fail_reportf
          "cap %d, op %d: request %d (floor %d) claimed %d, reference %d" cap
          op c !floor got want;
      incr
        (if Ports.slots ring > slots then grew
         else if claims = 0 then fresh
         else if claims < cap then under_cap
         else full)
    done
  done;
  if !fresh = 0 || !under_cap = 0 || !full = 0 || !grew = 0 then
    QCheck.Test.fail_reportf
      "stream missed an exit of Ports.alloc: %d fresh, %d under cap, %d \
       full, %d grew"
      !fresh !under_cap !full !grew;
  true

let test_ports_contract () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let p = Ports.create 2 in
  Alcotest.(check int) "starts at 256 slots" 256 (Ports.slots p);
  Alcotest.(check int) "first claim" 10 (Ports.alloc p ~floor:10 10);
  Alcotest.(check int) "second claim" 10 (Ports.alloc p ~floor:10 10);
  Alcotest.(check int) "full cycle walks on" 11 (Ports.alloc p ~floor:10 10);
  Alcotest.(check int) "far request" 10_010 (Ports.alloc p ~floor:10 10_010);
  Alcotest.(check int) "grew to fit the spread" 16_384 (Ports.slots p);
  Alcotest.(check int) "live counts survive growth" 11 (Ports.alloc p ~floor:10 10);
  Alcotest.(check bool) "request below floor" true
    (raises (fun () -> Ports.alloc p ~floor:12 11));
  Alcotest.(check bool) "falling floor" true
    (raises (fun () -> Ports.alloc p ~floor:9 20));
  Alcotest.(check bool) "zero cap" true (raises (fun () -> Ports.create 0))

(* ---- timing model vs Ref_timing ---- *)

let timing_events_per_case = 1_500

(* ROB, IQ, LQ and SQ of 1-16 entries, so every queue fills; widths and
   latencies anywhere in their valid ranges. *)
let random_machine rand =
  let between lo hi = lo + Random.State.int rand (hi - lo + 1) in
  {
    Config.default with
    Config.rob_entries = between 1 16;
    iq_entries = between 1 16;
    lq_entries = between 1 16;
    sq_entries = between 1 16;
    fetch_width = between 1 8;
    issue_width = between 1 8;
    load_issue = between 1 4;
    retire_width = between 1 12;
    frontend_depth = between 0 10;
    redirect_penalty = between 0 6;
    btb_miss_bubble = between 0 4;
    lat_int_alu = between 1 3;
    lat_int_mul = between 1 6;
    lat_int_div = between 1 24;
  }

(* A walk through a small code region: straight-line runs of ALU,
   multiply, divide, load and store µops over eight registers, so
   dependency chains form, and [addr_range] words of data, broken by
   every control kind (secure branches included) and by drains with SPM
   cycles. Branch sites repeat with a per-site bias, so the predictors
   learn some and miss some; returns mostly match their calls. *)
let random_events rand ~n ~addr_range =
  let code = 64 + Random.State.int rand 2048 in
  let bias = Array.init code (fun _ -> Random.State.int rand 101) in
  let pc = ref (Random.State.int rand code) in
  let calls = ref [] in
  let reg () = 1 + Random.State.int rand 8 in
  let anywhere () = Random.State.int rand code in
  List.init n (fun _ ->
      if Random.State.int rand 100 = 0 then
        Uop.Drain
          {
            reason =
              (match Random.State.int rand 3 with
               | 0 -> Uop.Drain_enter_secblock
               | 1 -> Uop.Drain_after_nt_path
               | _ -> Uop.Drain_exit_secblock);
            spm_cycles = Random.State.int rand 48;
          }
      else begin
        let u = Uop.make () in
        u.Uop.pc <- !pc;
        u.Uop.srcs <- Array.init (Random.State.int rand 3) (fun _ -> reg ());
        let next = ref ((!pc + 1) mod code) in
        let go target =
          u.Uop.target <- target;
          next := target
        in
        let value cls =
          u.Uop.cls <- cls;
          if Random.State.int rand 10 > 0 then u.Uop.dst <- reg ()
        in
        (match Random.State.int rand 100 with
         | k when k < 38 -> value Instr.Cls_int_alu
         | k when k < 43 -> value Instr.Cls_int_mul
         | k when k < 46 -> value Instr.Cls_int_div
         | k when k < 48 -> u.Uop.cls <- Instr.Cls_nop
         | k when k < 64 ->
           value Instr.Cls_load;
           u.Uop.mem_addr <- Random.State.int rand addr_range
         | k when k < 75 ->
           u.Uop.cls <- Instr.Cls_store;
           u.Uop.mem_addr <- Random.State.int rand addr_range
         | k when k < 89 ->
           u.Uop.cls <- Instr.Cls_branch;
           u.Uop.ctl <- Uop.Ctl_branch;
           u.Uop.secure <- Random.State.int rand 4 = 0;
           u.Uop.taken <- Random.State.int rand 100 < bias.(!pc);
           u.Uop.target <- (!pc * 7 + 3) mod code;
           (* an sJMP always continues at the fall-through *)
           if u.Uop.taken && not u.Uop.secure then next := u.Uop.target
         | k when k < 92 ->
           u.Uop.cls <- Instr.Cls_jump;
           u.Uop.ctl <- Uop.Ctl_jump;
           go ((!pc * 5 + 1) mod code)
         | k when k < 94 ->
           u.Uop.cls <- Instr.Cls_jump;
           u.Uop.ctl <- Uop.Ctl_call;
           u.Uop.return_to <- !next;
           calls := !next :: !calls;
           go (anywhere ())
         | k when k < 96 -> (
           u.Uop.cls <- Instr.Cls_jump;
           u.Uop.ctl <- Uop.Ctl_ret;
           match !calls with
           | r :: rest when Random.State.int rand 5 > 0 ->
             calls := rest;
             go r
           | _ -> go (anywhere ()))
         | k when k < 98 ->
           u.Uop.cls <- Instr.Cls_jump;
           u.Uop.ctl <- Uop.Ctl_indirect;
           go ((!pc + (Random.State.int rand 3 * 17)) mod code)
         | _ ->
           u.Uop.cls <- Instr.Cls_eosjmp;
           u.Uop.ctl <- Uop.Ctl_jumpback;
           go (anywhere ()));
        pc := !next;
        Uop.Commit u
      end)

(* Functional warming, as the fast-forward mode of sampled simulation
   does it: each µop's [Warm] calls in the timing model's order (fetch,
   data, control), with no cycle accounting. *)
let warm_functionally warm events =
  List.iter
    (function
      | Uop.Drain _ -> ()
      | Uop.Commit u -> (
        let pc = u.Uop.pc and target = u.Uop.target in
        ignore (Warm.fetch warm ~pc : int);
        (match u.Uop.cls with
         | Instr.Cls_load | Instr.Cls_store ->
           ignore
             (Warm.data warm ~pc ~word_addr:u.Uop.mem_addr
                ~write:(u.Uop.cls = Instr.Cls_store)
               : int)
         | _ -> ());
        match u.Uop.ctl with
        | Uop.Ctl_none | Uop.Ctl_jumpback -> ()
        | Uop.Ctl_branch ->
          if not u.Uop.secure then
            ignore (Warm.cond_branch warm ~pc ~taken:u.Uop.taken ~target : Warm.cond)
        | Uop.Ctl_jump -> ignore (Warm.taken_transfer warm ~pc ~target : Warm.transfer)
        | Uop.Ctl_call ->
          ignore
            (Warm.call warm ~pc ~target ~return_to:u.Uop.return_to : Warm.transfer)
        | Uop.Ctl_ret -> ignore (Warm.ret warm ~target : Warm.target_pred)
        | Uop.Ctl_indirect -> ignore (Warm.indirect warm ~pc ~target : Warm.target_pred)))
    events

(* A probe that logs every record as a line, newest first. *)
let recording_probe () =
  let log = ref [] in
  let on_uop (e : Probe.uop_event) =
    log :=
      Printf.sprintf
        "uop pc %d: fetch %d dispatch %d issue %d complete %d commit %d, %s +%d, \
         mispredicted %b, dcache_miss %b, il1_line %d, fetch_extra %d, mem_extra %d"
        e.Probe.uop.Uop.pc e.Probe.fetch e.Probe.dispatch e.Probe.issue
        e.Probe.complete e.Probe.commit (Stall.name e.Probe.bucket)
        e.Probe.attributed e.Probe.mispredicted e.Probe.dcache_miss
        e.Probe.il1_line e.Probe.fetch_extra e.Probe.mem_extra
      :: !log
  and on_drain (e : Probe.drain_event) =
    let reason =
      match e.Probe.reason with
      | Uop.Drain_enter_secblock -> "enter"
      | Uop.Drain_after_nt_path -> "after-nt"
      | Uop.Drain_exit_secblock -> "exit"
    in
    log :=
      Printf.sprintf "drain %s, %d spm cycles: start %d, resume %d" reason
        e.Probe.spm_cycles e.Probe.start e.Probe.resume
      :: !log
  in
  ({ Probe.on_uop; on_drain }, log)

let report_fields (r : Timing.report) =
  let i = string_of_int and f = Printf.sprintf "%.17g" in
  [
    ("instructions", i r.Timing.instructions); ("cycles", i r.Timing.cycles);
    ("cpi", f r.Timing.cpi); ("cond_branches", i r.Timing.cond_branches);
    ("mispredicts", i r.Timing.mispredicts);
    ("secure_branches", i r.Timing.secure_branches);
    ("drains", i r.Timing.drains); ("spm_cycles", i r.Timing.spm_cycles);
    ("loads", i r.Timing.loads); ("stores", i r.Timing.stores);
    ("il1_miss_rate", f r.Timing.il1_miss_rate);
    ("dl1_miss_rate", f r.Timing.dl1_miss_rate);
    ("l2_miss_rate", f r.Timing.l2_miss_rate);
    ("il1_accesses", i r.Timing.il1_accesses);
    ("dl1_accesses", i r.Timing.dl1_accesses);
    ("l2_accesses", i r.Timing.l2_accesses);
    ("il1_misses", i r.Timing.il1_misses); ("dl1_misses", i r.Timing.dl1_misses);
    ("l2_misses", i r.Timing.l2_misses);
    ( "stall_stack",
      String.concat " "
        (List.map2
           (fun b c -> Printf.sprintf "%s=%d" (Stall.name b) c)
           Stall.all (Array.to_list r.Timing.stall_stack)) );
  ]

let check_report_equal ~ctx got want =
  if got <> want then
    QCheck.Test.fail_reportf "%s: report diverges from the reference:%s" ctx
      (String.concat ""
         (List.filter_map
            (fun ((name, g), (_, w)) ->
              if g = w then None
              else Some (Printf.sprintf "\n  %s: %s, reference %s" name g w))
            (List.combine (report_fields got) (report_fields want))))

(* The content signatures of a warm state, the four an attacker view
   reads ([Sempe_security.Observable.view]). *)
let warm_signatures w =
  let h = Warm.hierarchy w in
  [
    ("il1_sig", Cache.signature (Sempe_mem.Hierarchy.il1 h));
    ("dl1_sig", Cache.signature (Sempe_mem.Hierarchy.dl1 h));
    ("l2_sig", Cache.signature (Sempe_mem.Hierarchy.l2 h));
    ("bpred_sig", Warm.predictor_signature w);
  ]

let check_warm_equal ~ctx got want =
  List.iter2
    (fun (name, g) (_, w) ->
      if g <> w then
        QCheck.Test.fail_reportf "%s: %s %d, reference %d" ctx name g w)
    (warm_signatures got) (warm_signatures want)

(* One case: a random machine and event stream through the timing model
   without a probe, the timing model with a recording probe, and the
   reference with one, each over its own [Warm.t] (cold, or warmed
   functionally by the same stream). The store ring has more slots than
   the address range, so it never forgets a store. Returns the
   reference's report. *)
let timing_equiv_case seed =
  let rand = Random.State.make [| seed; 0x71e1 |] in
  let machine = random_machine rand in
  let addr_range = 1 lsl (3 + Random.State.int rand 10) in
  let store_slots = 2 * addr_range in
  let events = random_events rand ~n:timing_events_per_case ~addr_range in
  let warming =
    if Random.State.bool rand then Some (random_events rand ~n:4_000 ~addr_range)
    else None
  in
  let warm () =
    Option.map
      (fun evs ->
        let w = Warm.create ~machine () in
        warm_functionally w evs;
        w)
      warming
  in
  let plain = Timing.create ~config:machine ?warm:(warm ()) ~store_slots () in
  let probe, got_log = recording_probe () in
  let probed = Timing.create ~config:machine ?warm:(warm ()) ~store_slots ~probe () in
  let ref_probe, want_log = recording_probe () in
  let reference = Ref_timing.create ~config:machine ?warm:(warm ()) ~probe:ref_probe () in
  List.iteri
    (fun i ev ->
      Timing.feed plain ev;
      Timing.feed probed ev;
      Ref_timing.feed reference ev;
      (* the sampler reads the frontier mid-run to delimit an interval *)
      let got = Timing.current_cycles plain
      and want = Ref_timing.current_cycles reference in
      if got <> want then
        QCheck.Test.fail_reportf "event %d: current_cycles %d, reference %d" i got want)
    events;
  let want = Ref_timing.report reference in
  check_report_equal ~ctx:"without a probe" (Timing.report plain) want;
  check_report_equal ~ctx:"with a probe" (Timing.report probed) want;
  let ref_warm = reference.Ref_timing.warm in
  check_warm_equal ~ctx:"without a probe" (Timing.warm_state plain) ref_warm;
  check_warm_equal ~ctx:"with a probe" (Timing.warm_state probed) ref_warm;
  let rec first_diff i = function
    | g :: gs, w :: ws ->
      if g <> w then
        QCheck.Test.fail_reportf "probe record %d diverges:\n  %s\n  reference %s" i g w
      else first_diff (i + 1) (gs, ws)
    | [], [] -> ()
    | _ -> QCheck.Test.fail_reportf "probe emitted a different number of records"
  in
  first_diff 0 (List.rev !got_log, List.rev !want_log);
  want

let timing_equiv_prop seed =
  ignore (timing_equiv_case seed : Timing.report);
  true

(* The bond is only as strong as the paths its streams reach: over a
   fixed set of cases, every stall bucket must be charged somewhere, and
   the streams must mispredict, run sJMPs and drain. *)
let test_timing_bond_coverage () =
  let stack = Array.make Stall.count 0 in
  let mispredicts = ref 0 and secure = ref 0 and drains = ref 0 in
  for seed = 0 to 19 do
    let r = timing_equiv_case seed in
    Array.iteri (fun i c -> stack.(i) <- stack.(i) + c) r.Timing.stall_stack;
    mispredicts := !mispredicts + r.Timing.mispredicts;
    secure := !secure + r.Timing.secure_branches;
    drains := !drains + r.Timing.drains
  done;
  List.iter
    (fun b ->
      if stack.(Stall.index b) = 0 then
        Alcotest.failf "no case charged the %s bucket" (Stall.name b))
    Stall.all;
  Alcotest.(check bool) "mispredicts, sJMPs and drains reached" true
    (!mispredicts > 0 && !secure > 0 && !drains > 0)

let tests =
  [
    qtest
      (QCheck.Test.make ~name:"packed cache equals record-based reference"
         ~count:4 QCheck.small_nat cache_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"packed TAGE equals record-based reference"
         ~count:4 QCheck.small_nat tage_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"packed BTB equals record-based reference"
         ~count:200 (QCheck.int_bound 0x3fffffff) btb_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"packed ITTAGE equals record-based reference"
         ~count:6 (QCheck.int_bound 0x3fffffff) ittage_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"paged memory equals flat-array reference"
         ~count:10 QCheck.small_nat memory_equiv_prop);
    Alcotest.test_case "paged memory: zero pages" `Quick test_memory_zero_pages;
    qtest
      (QCheck.Test.make ~name:"port ring equals unbounded per-cycle counts"
         ~count:10 QCheck.small_nat ports_equiv_prop);
    Alcotest.test_case "port ring: floor contract and growth" `Quick
      test_ports_contract;
    qtest
      (QCheck.Test.make ~name:"timing model equals plain reference scheduler"
         ~count:80 (QCheck.int_bound 0x3fffffff) timing_equiv_prop);
    Alcotest.test_case "timing bond: every stall bucket reached" `Quick
      test_timing_bond_coverage;
  ]
