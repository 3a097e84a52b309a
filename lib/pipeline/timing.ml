open Sempe_isa
module Hierarchy = Sempe_mem.Hierarchy

type t = {
  cfg : Config.t;
  (* All warmable microarchitectural state (caches, predictors, BTB, RAS,
     fetch-line tracker) lives in the Warm.t; the timing model holds only
     cycle bookkeeping. This is what lets a sampled run revive a
     functionally-warmed Warm.t inside a fresh timing model. *)
  warm : Warm.t;
  (* front end *)
  mutable fetch_cycle : int;
  mutable fetched_in_cycle : int;
  mutable stall_until : int;
  (* dataflow *)
  reg_ready : int array;
  (* capacity rings: index by occupancy counters *)
  rob_commit : int array;
  iq_issue : int array;
  lq_free : int array;
  sq_free : int array;
  mutable n_uops : int;
  mutable n_loads : int;
  mutable n_stores : int;
  (* ring cursors: [rob_pos = n_uops mod rob_entries] etc., maintained by
     wrap-on-increment so the per-µop path never divides *)
  mutable rob_pos : int;
  mutable iq_pos : int;
  mutable lq_pos : int;
  mutable sq_pos : int;
  issue_ports : Ports.t;
  load_ports : Ports.t;
  (* observability: stall-stack accounting is pure bookkeeping and never
     feeds back into a cycle assignment, and neither does the probe. *)
  stalls : int array;
  mutable stall_reason : Stall.bucket;
  mutable c_fetch_cause : Stall.bucket;
  mutable c_dispatch_cause : Stall.bucket;
  (* extra latency of the current µop's fetch and data access *)
  mutable c_fetch_extra : int;
  mutable c_mem_extra : int;
  probe : Probe.t option;
  (* IL1 line of the last fetch the probe reported; only the probe path
     reads or writes it *)
  mutable probe_line : int;
  (* stores in flight, a direct-mapped ring: slot
     [addr land store_mask] holds the word address of the youngest store
     mapping there and its completion cycle. A collision simply forgets the
     older store — forwarding is a performance heuristic, and a stale
     completion cycle from long ago loses the [max] against the load's own
     latency, so dropped entries can only cost forwarding, never corrupt a
     cycle. Replaces a Hashtbl (hashing + bucket chasing + amortized
     pruning) with two array words per store. *)
  store_addr : int array; (* -1 = empty *)
  store_done : int array;
  store_mask : int;
  (* commit *)
  mutable last_commit_cycle : int;
  mutable commits_in_cycle : int;
  mutable max_commit : int;
  (* statistics *)
  mutable s_instructions : int;
  mutable s_cond_branches : int;
  mutable s_mispredicts : int;
  mutable s_secure_branches : int;
  mutable s_drains : int;
  mutable s_spm_cycles : int;
  mutable s_loads : int;
  mutable s_stores : int;
  (* [feed]'s closure, built once at [create] *)
  mutable feed_fn : Uop.event -> unit;
}

let config t = t.cfg
let hierarchy t = Warm.hierarchy t.warm
let warm_state t = t.warm

let store_entries t =
  let n = ref 0 in
  Array.iter (fun a -> if a >= 0 then incr n) t.store_addr;
  !n

let current_cycles t = t.max_commit + 1

let port_slots t =
  Int.max (Ports.slots t.issue_ports) (Ports.slots t.load_ports)

let break_fetch_group t = t.fetched_in_cycle <- t.cfg.Config.fetch_width

(* All front-end stalls funnel through here so the stall stack knows *why*
   fetch was held back (redirect vs. SeMPE drain). *)
let raise_stall t cycle reason =
  if cycle > t.stall_until then begin
    t.stall_until <- cycle;
    t.stall_reason <- reason
  end

(* Assign a fetch cycle to the µop at [pc], honoring width, stalls and the
   instruction cache. *)
let[@inline] fetch t ~pc =
  let cfg = t.cfg in
  let base =
    if t.fetched_in_cycle >= cfg.Config.fetch_width then t.fetch_cycle + 1
    else t.fetch_cycle
  in
  let f = Int.max base t.stall_until in
  t.c_fetch_cause <- (if t.stall_until > base then t.stall_reason else Stall.Base);
  (* A hit costs no bubble beyond the pipelined front end; a miss stalls
     fetch for the extra latency. *)
  let extra = Warm.fetch t.warm ~pc in
  t.c_fetch_extra <- extra;
  if extra > 0 then t.c_fetch_cause <- Stall.Icache;
  let f = f + extra in
  if f > t.fetch_cycle then begin
    t.fetch_cycle <- f;
    t.fetched_in_cycle <- 1
  end
  else t.fetched_in_cycle <- t.fetched_in_cycle + 1;
  f

(* Dispatch waits for back-end capacity: the µop [n - size] positions older
   must have freed its ROB/IQ/LQ/SQ entry. *)
let[@inline] dispatch t ~fetch_time ~is_load ~is_store =
  let cfg = t.cfg in
  (* The bump steps are written out (not a local helper closing over [d]):
     a ref captured by a closure escapes and both would allocate per µop
     without flambda. *)
  let d = ref (fetch_time + cfg.Config.frontend_depth) in
  t.c_dispatch_cause <- Stall.Base;
  if t.n_uops >= Array.length t.rob_commit then begin
    let v = Array.unsafe_get t.rob_commit t.rob_pos + 1 in
    if v > !d then begin
      d := v;
      t.c_dispatch_cause <- Stall.Rob_full
    end
  end;
  if t.n_uops >= Array.length t.iq_issue then begin
    let v = Array.unsafe_get t.iq_issue t.iq_pos + 1 in
    if v > !d then begin
      d := v;
      t.c_dispatch_cause <- Stall.Iq_full
    end
  end;
  if is_load then begin
    if t.n_loads >= Array.length t.lq_free then begin
      let v = Array.unsafe_get t.lq_free t.lq_pos + 1 in
      if v > !d then begin
        d := v;
        t.c_dispatch_cause <- Stall.Lq_full
      end
    end
  end;
  if is_store then begin
    if t.n_stores >= Array.length t.sq_free then begin
      let v = Array.unsafe_get t.sq_free t.sq_pos + 1 in
      if v > !d then begin
        d := v;
        t.c_dispatch_cause <- Stall.Sq_full
      end
    end
  end;
  !d

let fu_latency t (cls : Instr.iclass) =
  let cfg = t.cfg in
  match cls with
  | Instr.Cls_int_mul -> cfg.Config.lat_int_mul
  | Instr.Cls_int_div -> cfg.Config.lat_int_div
  | Instr.Cls_nop | Instr.Cls_int_alu | Instr.Cls_branch | Instr.Cls_jump
  | Instr.Cls_eosjmp | Instr.Cls_halt ->
    cfg.Config.lat_int_alu
  | Instr.Cls_load | Instr.Cls_store ->
    (* memory latency added separately *)
    0

let[@inline] commit t ~complete =
  let cfg = t.cfg in
  let c = Int.max complete t.last_commit_cycle in
  let c =
    if c = t.last_commit_cycle && t.commits_in_cycle >= cfg.Config.retire_width then
      c + 1
    else c
  in
  if c = t.last_commit_cycle then t.commits_in_cycle <- t.commits_in_cycle + 1
  else begin
    t.last_commit_cycle <- c;
    t.commits_in_cycle <- 1
  end;
  if c > t.max_commit then t.max_commit <- c;
  c

(* Top-level control-flow helpers (not locals closing over the µop state):
   [handle_control] runs per committed µop, and local closures would
   allocate there without flambda. *)
let mispredict t ~complete =
  t.s_mispredicts <- t.s_mispredicts + 1;
  raise_stall t (complete + t.cfg.Config.redirect_penalty) Stall.Redirect;
  break_fetch_group t

(* Correctly predicted taken control flow: a BTB hit only breaks the
   fetch group; a miss adds a decode-redirect bubble. *)
let transfer t = function
  | Warm.Btb_hit -> break_fetch_group t
  | Warm.Btb_miss ->
    raise_stall t
      (t.fetch_cycle + t.cfg.Config.btb_miss_bubble)
      Stall.Redirect;
    break_fetch_group t

let handle_control t (u : Uop.t) ~complete =
  match u.Uop.ctl with
  | Uop.Ctl_none -> ()
  | Uop.Ctl_branch ->
    if u.Uop.secure then
      (* sJMP: the predictor is never consulted; fetch already continued at
         the fall-through, which is always the execution order (§IV-E). *)
      t.s_secure_branches <- t.s_secure_branches + 1
    else begin
      t.s_cond_branches <- t.s_cond_branches + 1;
      match
        Warm.cond_branch t.warm ~pc:u.Uop.pc ~taken:u.Uop.taken
          ~target:u.Uop.target
      with
      | Warm.Cond_mispredict -> mispredict t ~complete
      | Warm.Cond_correct_taken_hit -> transfer t Warm.Btb_hit
      | Warm.Cond_correct_taken_miss -> transfer t Warm.Btb_miss
      | Warm.Cond_correct_not_taken -> ()
    end
  | Uop.Ctl_jump ->
    transfer t (Warm.taken_transfer t.warm ~pc:u.Uop.pc ~target:u.Uop.target)
  | Uop.Ctl_call ->
    transfer t
      (Warm.call t.warm ~pc:u.Uop.pc ~target:u.Uop.target
         ~return_to:u.Uop.return_to)
  | Uop.Ctl_ret ->
    (match Warm.ret t.warm ~target:u.Uop.target with
     | Warm.Pred_hit -> break_fetch_group t
     | Warm.Pred_miss -> mispredict t ~complete)
  | Uop.Ctl_indirect ->
    (match Warm.indirect t.warm ~pc:u.Uop.pc ~target:u.Uop.target with
     | Warm.Pred_hit -> break_fetch_group t
     | Warm.Pred_miss -> mispredict t ~complete)
  | Uop.Ctl_jumpback ->
    (* eosJMP: nextPC comes from the jbTable at commit; the mandatory drain
       event that follows already charges the redirect. *)
    break_fetch_group t

(* One committed µop through fetch, dispatch, issue, completion and
   commit. With a probe attached it also builds one {!Probe.uop_event};
   the probe reads what the walk computed and never feeds back, so the
   report is the same with or without one (the sink-invisibility
   determinism test pins it). The probe-free branch ends in a tail call
   to [handle_control]. *)
let[@inline] feed_uop_core t (u : Uop.t) =
  let cfg = t.cfg in
  let is_load = u.Uop.cls = Instr.Cls_load in
  let is_store = u.Uop.cls = Instr.Cls_store in
  let f = fetch t ~pc:u.Uop.pc in
  let d = dispatch t ~fetch_time:f ~is_load ~is_store in
  let ready =
    (* plain for-loop: [srcs] is a predecoded array shared across commits,
       and this runs once per committed instruction *)
    let r = ref (d + 1) in
    let srcs = u.Uop.srcs in
    for i = 0 to Array.length srcs - 1 do
      let v = t.reg_ready.(Array.unsafe_get srcs i) in
      if v > !r then r := v
    done;
    !r
  in
  (* Every port request from here on is at or above [floor], the part of
     [dispatch]'s bound that never falls: fetch cycles and, once the ROB
     is full, the commit cycle of the µop [rob_entries] older are both
     non-decreasing. (The IQ term can fall, as issue is out of order, and
     the LQ/SQ terms bind only loads/stores.) The port rings grow to
     cover the spread above it, so they never alias. *)
  let floor =
    let fb = f + cfg.Config.frontend_depth in
    1
    + (if t.n_uops >= Array.length t.rob_commit then
         Int.max fb (Array.unsafe_get t.rob_commit t.rob_pos + 1)
       else fb)
  in
  let iss = Ports.alloc t.issue_ports ~floor ready in
  let iss = if is_load then Ports.alloc t.load_ports ~floor iss else iss in
  t.c_mem_extra <- 0;
  let complete =
    if is_load then begin
      t.s_loads <- t.s_loads + 1;
      let lat =
        Warm.data t.warm ~pc:u.Uop.pc ~word_addr:u.Uop.mem_addr ~write:false
      in
      t.c_mem_extra <- lat - Warm.lat_l1 t.warm;
      let c = iss + lat in
      (* Store-to-load forwarding: a younger load of a word written by an
         in-flight store sees the value one cycle after the store data is
         ready. *)
      let slot = u.Uop.mem_addr land t.store_mask in
      if Array.unsafe_get t.store_addr slot = u.Uop.mem_addr then
        Int.max c (Array.unsafe_get t.store_done slot + 1)
      else c
    end
    else if is_store then begin
      t.s_stores <- t.s_stores + 1;
      (* Store latency never gates commit (the SQ drains in the background),
         but the DL1/L2 response still tells a passive observer whether the
         store hit — keep it for the probe. *)
      let lat =
        Warm.data t.warm ~pc:u.Uop.pc ~word_addr:u.Uop.mem_addr ~write:true
      in
      t.c_mem_extra <- lat - Warm.lat_l1 t.warm;
      let c = iss + 1 in
      let slot = u.Uop.mem_addr land t.store_mask in
      Array.unsafe_set t.store_addr slot u.Uop.mem_addr;
      Array.unsafe_set t.store_done slot c;
      c
    end
    else iss + fu_latency t u.Uop.cls
  in
  if u.Uop.dst >= 0 then t.reg_ready.(u.Uop.dst) <- complete;
  let old_max = t.max_commit in
  let c = commit t ~complete in
  (* Record resource release times in the capacity rings, advancing the
     wrap-on-increment cursors ([pos = count mod size] without dividing). *)
  Array.unsafe_set t.rob_commit t.rob_pos c;
  t.rob_pos <-
    (let p = t.rob_pos + 1 in
     if p = Array.length t.rob_commit then 0 else p);
  Array.unsafe_set t.iq_issue t.iq_pos iss;
  t.iq_pos <-
    (let p = t.iq_pos + 1 in
     if p = Array.length t.iq_issue then 0 else p);
  if is_load then begin
    Array.unsafe_set t.lq_free t.lq_pos complete;
    t.lq_pos <-
      (let p = t.lq_pos + 1 in
       if p = Array.length t.lq_free then 0 else p);
    t.n_loads <- t.n_loads + 1
  end;
  if is_store then begin
    Array.unsafe_set t.sq_free t.sq_pos c;
    t.sq_pos <-
      (let p = t.sq_pos + 1 in
       if p = Array.length t.sq_free then 0 else p);
    t.n_stores <- t.n_stores + 1
  end;
  t.n_uops <- t.n_uops + 1;
  t.s_instructions <- t.s_instructions + 1;
  (* Stall-stack attribution: the cycles this µop advanced the commit
     frontier by are charged to the most specific constraint that bound
     its timeline, walking the critical path backwards from commit. The
     per-bucket sums (plus the base cycle 0) equal the total cycle count
     by construction. *)
  let delta = c - old_max in
  let dcache_miss = is_load && t.c_mem_extra > 0 in
  let bucket =
    if c > complete then Stall.Base (* retire bandwidth / in-order commit *)
    else if dcache_miss then Stall.Dcache
    else if iss > ready then Stall.Fu_contention
    else if ready > d + 1 then Stall.Base (* operand dataflow *)
    else if d > f + cfg.Config.frontend_depth then t.c_dispatch_cause
    else t.c_fetch_cause
  in
  if delta > 0 then
    t.stalls.(Stall.index bucket) <- t.stalls.(Stall.index bucket) + delta;
  match t.probe with
  | None -> handle_control t u ~complete
  | Some p ->
    let mispredicts_before = t.s_mispredicts in
    handle_control t u ~complete;
    (* the fetch touched the IL1 iff it left the line of the previous one *)
    let line = Warm.fetch_line t.warm in
    let il1_line =
      if line = t.probe_line then -1
      else begin
        t.probe_line <- line;
        line
      end
    in
    p.Probe.on_uop
      {
        Probe.uop = u;
        fetch = f;
        dispatch = d;
        issue = iss;
        complete;
        commit = c;
        bucket;
        attributed = delta;
        mispredicted = t.s_mispredicts > mispredicts_before;
        dcache_miss;
        il1_line;
        fetch_extra = t.c_fetch_extra;
        mem_extra = t.c_mem_extra;
      }

let feed_drain t ~reason ~spm_cycles =
  let start = t.max_commit in
  t.s_drains <- t.s_drains + 1;
  t.s_spm_cycles <- t.s_spm_cycles + spm_cycles;
  (* No later µop may dispatch until everything older has committed and the
     SPM transfer has finished. Front-end refill then costs the usual
     pipeline depth on the next µop. *)
  raise_stall t (t.max_commit + 1 + spm_cycles) Stall.Drain;
  break_fetch_group t;
  match t.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_drain { Probe.reason; spm_cycles; start; resume = t.stall_until }

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(config = Config.default) ?warm ?(store_slots = 4096) ?probe () =
  let warm =
    match warm with Some w -> w | None -> Warm.create ~machine:config ()
  in
  let store_slots = round_pow2 (Int.max 1 store_slots) in
  let t =
    {
      cfg = config;
      warm;
      fetch_cycle = 0;
      fetched_in_cycle = 0;
      stall_until = 0;
      reg_ready = Array.make Reg.count 0;
      rob_commit = Array.make config.Config.rob_entries 0;
      iq_issue = Array.make config.Config.iq_entries 0;
      lq_free = Array.make config.Config.lq_entries 0;
      sq_free = Array.make config.Config.sq_entries 0;
      n_uops = 0;
      n_loads = 0;
      n_stores = 0;
      rob_pos = 0;
      iq_pos = 0;
      lq_pos = 0;
      sq_pos = 0;
      issue_ports = Ports.create config.Config.issue_width;
      load_ports = Ports.create config.Config.load_issue;
      stalls = Array.make Stall.count 0;
      stall_reason = Stall.Base;
      c_fetch_cause = Stall.Base;
      c_dispatch_cause = Stall.Base;
      c_fetch_extra = 0;
      c_mem_extra = 0;
      probe;
      probe_line = Warm.fetch_line warm;
      store_addr = Array.make store_slots (-1);
      store_done = Array.make store_slots 0;
      store_mask = store_slots - 1;
      last_commit_cycle = -1;
      commits_in_cycle = 0;
      max_commit = 0;
      s_instructions = 0;
      s_cond_branches = 0;
      s_mispredicts = 0;
      s_secure_branches = 0;
      s_drains = 0;
      s_spm_cycles = 0;
      s_loads = 0;
      s_stores = 0;
      feed_fn = ignore;
    }
  in
  t.feed_fn <-
    (function
      | Uop.Commit u -> feed_uop_core t u
      | Uop.Drain { spm_cycles; reason } -> feed_drain t ~reason ~spm_cycles);
  t

(* Returns the stored closure itself: a caller that passes [feed t] as a
   sink makes one closure call per event, not a call through a partial
   application that then calls [feed_fn]. *)
let feed t = t.feed_fn

type report = {
  instructions : int;
  cycles : int;
  cpi : float;
  cond_branches : int;
  mispredicts : int;
  secure_branches : int;
  drains : int;
  spm_cycles : int;
  loads : int;
  stores : int;
  il1_miss_rate : float;
  dl1_miss_rate : float;
  l2_miss_rate : float;
  il1_accesses : int;
  dl1_accesses : int;
  l2_accesses : int;
  il1_misses : int;
  dl1_misses : int;
  l2_misses : int;
  stall_stack : int array;
}

let report t =
  let open Sempe_util in
  let hier = Warm.hierarchy t.warm in
  let il1, dl1, l2 = (Hierarchy.il1 hier, Hierarchy.dl1 hier, Hierarchy.l2 hier) in
  let acc c = Stats.find (Sempe_mem.Cache.stats c) "accesses" in
  let mis c = Stats.find (Sempe_mem.Cache.stats c) "misses" in
  let cycles = t.max_commit + 1 in
  {
    instructions = t.s_instructions;
    cycles;
    cpi = Stats.ratio ~num:cycles ~den:t.s_instructions;
    cond_branches = t.s_cond_branches;
    mispredicts = t.s_mispredicts;
    secure_branches = t.s_secure_branches;
    drains = t.s_drains;
    spm_cycles = t.s_spm_cycles;
    loads = t.s_loads;
    stores = t.s_stores;
    il1_miss_rate = Sempe_mem.Cache.miss_rate il1;
    dl1_miss_rate = Sempe_mem.Cache.miss_rate dl1;
    l2_miss_rate = Sempe_mem.Cache.miss_rate l2;
    il1_accesses = acc il1;
    dl1_accesses = acc dl1;
    l2_accesses = acc l2;
    il1_misses = mis il1;
    dl1_misses = mis dl1;
    l2_misses = mis l2;
    stall_stack =
      (* Cycle 0 (and any unattributed remainder) goes to the base bucket,
         so the stack sums to [cycles] exactly. *)
      (let st = Array.copy t.stalls in
       let attributed = Array.fold_left ( + ) 0 st in
       st.(Stall.index Stall.Base) <-
         st.(Stall.index Stall.Base) + (cycles - attributed);
       st);
  }

(* Structural invariants every well-formed report satisfies, whatever the
   workload: the differential fuzzer and the test suite call this instead
   of re-deriving the checks. Returns one message per violated invariant
   (empty = healthy). *)
let check_report (r : report) =
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  if r.instructions < 0 then fail "negative instruction count %d" r.instructions;
  if r.instructions > 0 && r.cycles <= 0 then
    fail "%d instructions committed in %d cycles" r.instructions r.cycles;
  if Array.length r.stall_stack <> Stall.count then
    fail "stall stack has %d buckets, expected %d"
      (Array.length r.stall_stack) Stall.count;
  Array.iteri
    (fun i c ->
      if c < 0 then
        fail "negative stall bucket %s = %d" (Stall.name (List.nth Stall.all i)) c)
    r.stall_stack;
  let attributed = Array.fold_left ( + ) 0 r.stall_stack in
  if attributed <> r.cycles then
    fail "stall stack sums to %d, cycles = %d" attributed r.cycles;
  if r.mispredicts < 0 || r.mispredicts > r.cond_branches then
    fail "%d mispredicts out of %d conditional branches" r.mispredicts
      r.cond_branches;
  if r.loads < 0 || r.stores < 0 || r.loads + r.stores > r.instructions then
    fail "%d loads + %d stores exceed %d instructions" r.loads r.stores
      r.instructions;
  if r.secure_branches < 0 then fail "negative sJMP count %d" r.secure_branches;
  if r.drains < 0 then fail "negative drain count %d" r.drains;
  if r.spm_cycles < 0 then fail "negative SPM transfer cycles %d" r.spm_cycles;
  let cache name accesses misses rate =
    if misses < 0 || misses > accesses then
      fail "%s: %d misses out of %d accesses" name misses accesses;
    let expect =
      if accesses = 0 then 0. else float_of_int misses /. float_of_int accesses
    in
    if Float.abs (rate -. expect) > 1e-9 then
      fail "%s: miss rate %.6f inconsistent with %d/%d" name rate misses
        accesses
  in
  cache "IL1" r.il1_accesses r.il1_misses r.il1_miss_rate;
  cache "DL1" r.dl1_accesses r.dl1_misses r.dl1_miss_rate;
  cache "L2" r.l2_accesses r.l2_misses r.l2_miss_rate;
  let cpi_expect =
    if r.instructions = 0 then 0.
    else float_of_int r.cycles /. float_of_int r.instructions
  in
  if Float.abs (r.cpi -. cpi_expect) > 1e-9 then
    fail "CPI %.6f inconsistent with %d cycles / %d instructions" r.cpi
      r.cycles r.instructions;
  List.rev !bad
