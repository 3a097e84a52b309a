module Uop = Sempe_pipeline.Uop
module Probe = Sempe_pipeline.Probe
module Timing = Sempe_pipeline.Timing
module Warm = Sempe_pipeline.Warm
module Hierarchy = Sempe_mem.Hierarchy
module Cache = Sempe_mem.Cache

type recorder = {
  mutable pc_digest : int;
  mutable pc_digest2 : int;
  mutable addr_digest : int;
  mutable addr_digest2 : int;
  mutable commits : int;
  mutable mem_ops : int;
}

let fnv acc x = (acc * 16777619) lxor (x land 0x3fffffff) lxor (x asr 30)

(* Independent second digest (FNV-1a ordering: xor before multiply, and a
   different seed). Two sequences that collide under [fnv] have no reason
   to collide here too, so the pair is a structural fingerprint rather
   than a single hash a leak could hide behind. *)
let fnv2 acc x = (acc lxor (x land 0x3fffffff) lxor (x asr 30)) * 16777619

let recorder () =
  {
    pc_digest = 2166136261;
    pc_digest2 = 1099511628211;
    addr_digest = 2166136261;
    addr_digest2 = 1099511628211;
    commits = 0;
    mem_ops = 0;
  }

let on_uop r (ev : Probe.uop_event) =
  let u = ev.Probe.uop in
  r.commits <- r.commits + 1;
  r.pc_digest <- fnv r.pc_digest u.Uop.pc;
  r.pc_digest2 <- fnv2 r.pc_digest2 u.Uop.pc;
  match u.Uop.cls with
  | Sempe_isa.Instr.Cls_load | Sempe_isa.Instr.Cls_store ->
    r.mem_ops <- r.mem_ops + 1;
    r.addr_digest <- fnv r.addr_digest u.Uop.mem_addr;
    r.addr_digest2 <- fnv2 r.addr_digest2 u.Uop.mem_addr
  | Sempe_isa.Instr.Cls_nop | Sempe_isa.Instr.Cls_int_alu
  | Sempe_isa.Instr.Cls_int_mul | Sempe_isa.Instr.Cls_int_div
  | Sempe_isa.Instr.Cls_branch | Sempe_isa.Instr.Cls_jump
  | Sempe_isa.Instr.Cls_eosjmp | Sempe_isa.Instr.Cls_halt -> ()

let probe r = { Probe.on_uop = on_uop r; on_drain = ignore }

let pc_digest r = r.pc_digest
let addr_digest r = r.addr_digest
let commits r = r.commits
let mem_ops r = r.mem_ops

type view = {
  cycles : int;
  instructions : int;
  pc_digest : int;
  pc_digest2 : int;
  addr_digest : int;
  addr_digest2 : int;
  mem_ops : int;
  il1_sig : int;
  dl1_sig : int;
  l2_sig : int;
  bpred_sig : int;
  il1_accesses : int;
  il1_misses : int;
  dl1_accesses : int;
  dl1_misses : int;
  l2_accesses : int;
  l2_misses : int;
  mispredicts : int;
}

(* The content signatures hash the whole cache and predictor state, so
   they are computed here, for the runs that build an attacker view, and
   not by [Timing.report] for every run. *)
let view (r : recorder) (o : Sempe_core.Run.outcome) =
  let report = o.Sempe_core.Run.timing and warm = o.Sempe_core.Run.warm in
  let hier = Warm.hierarchy warm in
  {
    cycles = report.Timing.cycles;
    instructions = report.Timing.instructions;
    pc_digest = r.pc_digest;
    pc_digest2 = r.pc_digest2;
    addr_digest = r.addr_digest;
    addr_digest2 = r.addr_digest2;
    mem_ops = r.mem_ops;
    il1_sig = Cache.signature (Hierarchy.il1 hier);
    dl1_sig = Cache.signature (Hierarchy.dl1 hier);
    l2_sig = Cache.signature (Hierarchy.l2 hier);
    bpred_sig = Warm.predictor_signature warm;
    il1_accesses = report.Timing.il1_accesses;
    il1_misses = report.Timing.il1_misses;
    dl1_accesses = report.Timing.dl1_accesses;
    dl1_misses = report.Timing.dl1_misses;
    l2_accesses = report.Timing.l2_accesses;
    l2_misses = report.Timing.l2_misses;
    mispredicts = report.Timing.mispredicts;
  }
