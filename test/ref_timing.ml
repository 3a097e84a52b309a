(* Reference model for the timing model ([lib/pipeline/timing.ml]): the
   same machine, written plainly from DESIGN.md and [timing.mli] as an
   executable specification. Every structure is the obvious one:

   - the ROB, IQ, LQ and SQ are explicit FIFO queues of their occupants'
     release cycles;
   - issue and load ports are [Ref_ports] tables of per-cycle claims;
   - in-flight stores are an exact map from word address to completion
     cycle, which never forgets a store;
   - commit counts its claims per cycle in a table.

   Caches, predictors, BTB and RAS are the production [Warm.t], whose
   caches and TAGE are bonded to their own references. [Test_ref_equiv]
   drives this model and [Timing] through identical event streams and
   requires equal reports, stall stack included, equal probe records and
   equal cache and predictor signatures of the two warm states.
   Keep it naive: its value is that it shares no ring, cursor or
   staging with the model under test. *)

module Config = Sempe_pipeline.Config
module Warm = Sempe_pipeline.Warm
module Uop = Sempe_pipeline.Uop
module Probe = Sempe_pipeline.Probe
module Stall = Sempe_pipeline.Stall
module Timing = Sempe_pipeline.Timing
module Instr = Sempe_isa.Instr
module Cache = Sempe_mem.Cache
module Hierarchy = Sempe_mem.Hierarchy

(* A back-end structure of [capacity] entries, each held from dispatch
   until a release cycle. The oldest occupant leaves first. *)
module Queue_of_releases = struct
  type t = { capacity : int; releases : int Queue.t }

  let create capacity = { capacity; releases = Queue.create () }

  (* A new occupant needs a free entry: when the structure is full it
     dispatches the cycle after the oldest occupant releases its own. *)
  let dispatch_bound q =
    if Queue.length q.releases < q.capacity then None
    else Some (Queue.peek q.releases + 1)

  let enter q ~release =
    Queue.push release q.releases;
    if Queue.length q.releases > q.capacity then ignore (Queue.pop q.releases)
end

type t = {
  cfg : Config.t;
  warm : Warm.t;
  probe : Probe.t option;
  (* front end: the cycle of the current fetch group and the slots left
     in it; a stall holds every later fetch until [stall_until] *)
  mutable fetch_cycle : int;
  mutable fetch_slots : int;
  mutable stall_until : int;
  mutable stall_cause : Stall.bucket;
  (* dataflow: the cycle each architectural register's value is ready *)
  reg_ready : int array;
  rob : Queue_of_releases.t;
  iq : Queue_of_releases.t;
  lq : Queue_of_releases.t;
  sq : Queue_of_releases.t;
  issue_ports : Ref_ports.t;
  load_ports : Ref_ports.t;
  stores : (int, int) Hashtbl.t;  (* word address -> completion cycle *)
  commits_at : (int, int) Hashtbl.t;  (* cycle -> µops committed in it *)
  mutable last_commit : int;
  (* the commit frontier: the latest commit cycle so far *)
  mutable frontier : int;
  stalls : int array;
  mutable instructions : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  mutable secure_branches : int;
  mutable drains : int;
  mutable spm_cycles : int;
  mutable loads : int;
  mutable stores_n : int;
}

let create ?(config = Config.default) ?warm ?probe () =
  let warm =
    match warm with Some w -> w | None -> Warm.create ~machine:config ()
  in
  {
    cfg = config;
    warm;
    probe;
    fetch_cycle = 0;
    fetch_slots = config.Config.fetch_width;
    stall_until = 0;
    stall_cause = Stall.Base;
    reg_ready = Array.make Sempe_isa.Reg.count 0;
    rob = Queue_of_releases.create config.Config.rob_entries;
    iq = Queue_of_releases.create config.Config.iq_entries;
    lq = Queue_of_releases.create config.Config.lq_entries;
    sq = Queue_of_releases.create config.Config.sq_entries;
    issue_ports = Ref_ports.create config.Config.issue_width;
    load_ports = Ref_ports.create config.Config.load_issue;
    stores = Hashtbl.create 64;
    commits_at = Hashtbl.create 1024;
    last_commit = 0;
    frontier = 0;
    stalls = Array.make Stall.count 0;
    instructions = 0;
    cond_branches = 0;
    mispredicts = 0;
    secure_branches = 0;
    drains = 0;
    spm_cycles = 0;
    loads = 0;
    stores_n = 0;
  }

(* ---- front end ---- *)

(* Hold fetch until [cycle]. The later of two holds wins; at equal
   cycles the first cause stands. *)
let hold_fetch r cycle cause =
  if cycle > r.stall_until then begin
    r.stall_until <- cycle;
    r.stall_cause <- cause
  end

(* A taken transfer ends the fetch group: the next µop fetches in a
   later cycle. *)
let end_group r = r.fetch_slots <- 0

type fetched = {
  f_cycle : int;
  f_cause : Stall.bucket;  (* what delayed fetch, Base if nothing did *)
  f_extra : int;  (* IL1 latency beyond a pipelined hit *)
  f_line : int;  (* IL1 line accessed, -1 if the µop rode the last one *)
}

(* Up to [fetch_width] µops fetch per cycle, never before a held stall
   ends; an IL1 miss delays the µop by its extra latency and starts a new
   group. *)
let fetch r ~pc =
  let earliest =
    if r.fetch_slots = 0 then r.fetch_cycle + 1 else r.fetch_cycle
  in
  let cause = if r.stall_until > earliest then r.stall_cause else Stall.Base in
  let line_before = Warm.fetch_line r.warm in
  let extra = Warm.fetch r.warm ~pc in
  let line_after = Warm.fetch_line r.warm in
  let cause = if extra > 0 then Stall.Icache else cause in
  let cycle = Int.max earliest r.stall_until + extra in
  if cycle = r.fetch_cycle then r.fetch_slots <- r.fetch_slots - 1
  else begin
    r.fetch_cycle <- cycle;
    r.fetch_slots <- r.cfg.Config.fetch_width - 1
  end;
  {
    f_cycle = cycle;
    f_cause = cause;
    f_extra = extra;
    f_line = (if line_after = line_before then -1 else line_after);
  }

(* ---- back end ---- *)

(* Dispatch follows fetch by the front-end depth and waits for a free
   entry in the ROB, the IQ and, for memory µops, the LQ or SQ. The
   cause is the structure that set the bound; the front end's own bound
   beats a structure's equal one, and between structures the first
   listed wins. *)
let dispatch r ~fetch ~is_load ~is_store =
  let structures =
    [ (r.rob, Stall.Rob_full); (r.iq, Stall.Iq_full) ]
    @ (if is_load then [ (r.lq, Stall.Lq_full) ] else [])
    @ if is_store then [ (r.sq, Stall.Sq_full) ] else []
  in
  List.fold_left
    (fun (cycle, cause) (q, full) ->
      match Queue_of_releases.dispatch_bound q with
      | Some bound when bound > cycle -> (bound, full)
      | _ -> (cycle, cause))
    (fetch + r.cfg.Config.frontend_depth, Stall.Base)
    structures

let fu_latency cfg (cls : Instr.iclass) =
  match cls with
  | Instr.Cls_int_mul -> cfg.Config.lat_int_mul
  | Instr.Cls_int_div -> cfg.Config.lat_int_div
  | Instr.Cls_load | Instr.Cls_store -> 0
  | Instr.Cls_nop | Instr.Cls_int_alu | Instr.Cls_branch | Instr.Cls_jump
  | Instr.Cls_eosjmp | Instr.Cls_halt ->
    cfg.Config.lat_int_alu

(* In order, at most [retire_width] µops per cycle, never before the µop
   completes. *)
let commit r ~complete =
  let claims c = Option.value (Hashtbl.find_opt r.commits_at c) ~default:0 in
  let c = ref (Int.max complete r.last_commit) in
  while claims !c >= r.cfg.Config.retire_width do
    incr c
  done;
  Hashtbl.replace r.commits_at !c (claims !c + 1);
  r.last_commit <- !c;
  !c

(* ---- control flow, resolved at completion ---- *)

(* A misprediction redirects fetch [redirect_penalty] cycles after the
   µop completes. *)
let redirect r ~complete =
  r.mispredicts <- r.mispredicts + 1;
  hold_fetch r (complete + r.cfg.Config.redirect_penalty) Stall.Redirect;
  end_group r;
  true

(* A correctly anticipated taken transfer ends the group; a BTB miss also
   costs a decode-redirect bubble after the µop's fetch. *)
let taken r ~fetch = function
  | Warm.Btb_hit ->
    end_group r;
    false
  | Warm.Btb_miss ->
    hold_fetch r (fetch + r.cfg.Config.btb_miss_bubble) Stall.Redirect;
    end_group r;
    false

(* Trains the warm state and returns whether the µop mispredicted. *)
let resolve r (u : Uop.t) ~fetch ~complete =
  let w = r.warm in
  match u.Uop.ctl with
  | Uop.Ctl_none -> false
  | Uop.Ctl_branch when u.Uop.secure ->
    (* sJMP: never predicted, fetch continues at the fall-through *)
    r.secure_branches <- r.secure_branches + 1;
    false
  | Uop.Ctl_branch -> (
    r.cond_branches <- r.cond_branches + 1;
    match
      Warm.cond_branch w ~pc:u.Uop.pc ~taken:u.Uop.taken ~target:u.Uop.target
    with
    | Warm.Cond_mispredict -> redirect r ~complete
    | Warm.Cond_correct_taken_hit -> taken r ~fetch Warm.Btb_hit
    | Warm.Cond_correct_taken_miss -> taken r ~fetch Warm.Btb_miss
    | Warm.Cond_correct_not_taken -> false)
  | Uop.Ctl_jump ->
    taken r ~fetch (Warm.taken_transfer w ~pc:u.Uop.pc ~target:u.Uop.target)
  | Uop.Ctl_call ->
    taken r ~fetch
      (Warm.call w ~pc:u.Uop.pc ~target:u.Uop.target ~return_to:u.Uop.return_to)
  | Uop.Ctl_ret -> (
    match Warm.ret w ~target:u.Uop.target with
    | Warm.Pred_hit ->
      end_group r;
      false
    | Warm.Pred_miss -> redirect r ~complete)
  | Uop.Ctl_indirect -> (
    match Warm.indirect w ~pc:u.Uop.pc ~target:u.Uop.target with
    | Warm.Pred_hit ->
      end_group r;
      false
    | Warm.Pred_miss -> redirect r ~complete)
  | Uop.Ctl_jumpback ->
    (* eosJMP: nextPC comes from the jbTable; the drain that follows
       charges the redirect *)
    end_group r;
    false

(* ---- one committed µop ---- *)

let step r (u : Uop.t) =
  let cfg = r.cfg in
  let is_load = u.Uop.cls = Instr.Cls_load in
  let is_store = u.Uop.cls = Instr.Cls_store in
  let fe = fetch r ~pc:u.Uop.pc in
  let d, dispatch_cause = dispatch r ~fetch:fe.f_cycle ~is_load ~is_store in
  let ready =
    Array.fold_left (fun acc s -> Int.max acc r.reg_ready.(s)) (d + 1) u.Uop.srcs
  in
  let iss = Ref_ports.alloc r.issue_ports ready in
  let iss = if is_load then Ref_ports.alloc r.load_ports iss else iss in
  let mem_extra = ref 0 in
  let complete =
    if is_load || is_store then begin
      let lat =
        Warm.data r.warm ~pc:u.Uop.pc ~word_addr:u.Uop.mem_addr ~write:is_store
      in
      mem_extra := lat - Warm.lat_l1 r.warm;
      if is_load then begin
        r.loads <- r.loads + 1;
        (* a load of a stored word sees the value the cycle after the
           store completes *)
        match Hashtbl.find_opt r.stores u.Uop.mem_addr with
        | Some done_at -> Int.max (iss + lat) (done_at + 1)
        | None -> iss + lat
      end
      else begin
        (* the SQ drains in the background: a store completes the cycle
           after issue whatever its cache latency *)
        r.stores_n <- r.stores_n + 1;
        Hashtbl.replace r.stores u.Uop.mem_addr (iss + 1);
        iss + 1
      end
    end
    else iss + fu_latency cfg u.Uop.cls
  in
  if u.Uop.dst >= 0 then r.reg_ready.(u.Uop.dst) <- complete;
  let c = commit r ~complete in
  Queue_of_releases.enter r.rob ~release:c;
  Queue_of_releases.enter r.iq ~release:iss;
  if is_load then Queue_of_releases.enter r.lq ~release:complete;
  if is_store then Queue_of_releases.enter r.sq ~release:c;
  r.instructions <- r.instructions + 1;
  (* The cycles this µop moves the commit frontier are charged to the
     constraint that bound it, walking back from commit. *)
  let advanced = Int.max 0 (c - r.frontier) in
  r.frontier <- Int.max r.frontier c;
  let dcache_miss = is_load && !mem_extra > 0 in
  let bucket =
    if c > complete then Stall.Base (* in-order commit, retire width *)
    else if dcache_miss then Stall.Dcache
    else if iss > ready then Stall.Fu_contention
    else if ready > d + 1 then Stall.Base (* operand dataflow *)
    else if d > fe.f_cycle + cfg.Config.frontend_depth then dispatch_cause
    else fe.f_cause
  in
  let i = Stall.index bucket in
  r.stalls.(i) <- r.stalls.(i) + advanced;
  let mispredicted = resolve r u ~fetch:fe.f_cycle ~complete in
  match r.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_uop
      {
        Probe.uop = u;
        fetch = fe.f_cycle;
        dispatch = d;
        issue = iss;
        complete;
        commit = c;
        bucket;
        attributed = advanced;
        mispredicted;
        dcache_miss;
        il1_line = fe.f_line;
        fetch_extra = fe.f_extra;
        mem_extra = !mem_extra;
      }

(* A SeMPE drain: nothing younger dispatches before everything older has
   committed and the SPM transfer is done. *)
let drain r ~reason ~spm_cycles =
  let start = r.frontier in
  r.drains <- r.drains + 1;
  r.spm_cycles <- r.spm_cycles + spm_cycles;
  hold_fetch r (r.frontier + 1 + spm_cycles) Stall.Drain;
  end_group r;
  match r.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_drain { Probe.reason; spm_cycles; start; resume = r.stall_until }

let feed r = function
  | Uop.Commit u -> step r u
  | Uop.Drain { reason; spm_cycles } -> drain r ~reason ~spm_cycles

(* cycles up to and including the commit frontier's *)
let current_cycles r = r.frontier + 1

let report r : Timing.report =
  let h = Warm.hierarchy r.warm in
  let il1 = Hierarchy.il1 h and dl1 = Hierarchy.dl1 h and l2 = Hierarchy.l2 h in
  let cycles = current_cycles r in
  let stall_stack = Array.copy r.stalls in
  (* cycle 0 and whatever no µop advanced go to the base bucket *)
  let base = Stall.index Stall.Base in
  stall_stack.(base) <-
    stall_stack.(base) + cycles - Array.fold_left ( + ) 0 r.stalls;
  {
    Timing.instructions = r.instructions;
    cycles;
    cpi = Sempe_util.Stats.ratio ~num:cycles ~den:r.instructions;
    cond_branches = r.cond_branches;
    mispredicts = r.mispredicts;
    secure_branches = r.secure_branches;
    drains = r.drains;
    spm_cycles = r.spm_cycles;
    loads = r.loads;
    stores = r.stores_n;
    il1_miss_rate = Cache.miss_rate il1;
    dl1_miss_rate = Cache.miss_rate dl1;
    l2_miss_rate = Cache.miss_rate l2;
    il1_accesses = Cache.accesses il1;
    dl1_accesses = Cache.accesses dl1;
    l2_accesses = Cache.accesses l2;
    il1_misses = Cache.misses il1;
    dl1_misses = Cache.misses dl1;
    l2_misses = Cache.misses l2;
    stall_stack;
  }
