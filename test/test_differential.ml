(* Differential check of the predecoded threaded interpreter against a
   straight-line reference interpreter.

   The production core ({!Sempe_core.Exec}) predecodes each static
   instruction into a specialized thunk and reuses one mutable µop record
   per pc. The reference below is the shape the core had before that
   rewrite: re-match the instruction constructor every step and allocate a
   fresh µop per commit. Both must produce byte-identical architectural
   results and — fed into identical fresh timing models — byte-identical
   timing reports, over fuzz-generated SeMPE programs and curated
   workloads. Sampled estimates must additionally be identical at any
   worker count. *)

open Sempe_isa
module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Jbtable = Sempe_core.Jbtable
module Snapshot = Sempe_core.Snapshot
module Scheme = Sempe_core.Scheme
module Spm = Sempe_mem.Spm
module Uop = Sempe_pipeline.Uop
module Timing = Sempe_pipeline.Timing
module Warm = Sempe_pipeline.Warm
module Gen = Sempe_fuzz.Gen
module Harness = Sempe_workloads.Harness
module Microbench = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels

(* ---- reference interpreter ------------------------------------------- *)

type ref_result = {
  r_regs : int array;
  r_mem : int array;
  r_instrs : int;
  r_sjmps : int;
  r_nesting : int;
}

(* Semantics transcribed from the paper sections the production core
   implements, with the pre-rewrite execution strategy. Event order per
   instruction is the contract both interpreters share: fetch, data access,
   control flow; Commit before the Drain it causes. Memory is one flat
   array, independent of the core's paged layout: [init_mem] fills a paged
   image that is flattened once before the run. *)
let ref_run ~(config : Exec.config) ?(init_mem = fun (_ : Memory.t) -> ())
    ?(sink = fun (_ : Uop.event) -> ()) prog =
  assert (config.Exec.fault = Exec.No_fault);
  let mw = config.Exec.mem_words in
  let forgiving = config.Exec.forgiving_oob in
  let sempe = config.Exec.support = Exec.Sempe_hw in
  let plen = Program.length prog in
  let regs = Array.make Reg.count 0 in
  let mem =
    let m = Memory.create mw in
    init_mem m;
    Memory.sub m 0 mw
  in
  let jb = Jbtable.create ~entries:config.Exec.jbtable_entries () in
  let snaps = Snapshot.create () in
  let spm = Spm.create ~config:config.Exec.spm () in
  regs.(Reg.sp) <- mw - 1;
  regs.(Reg.gp) <- 0;
  let pc = ref prog.Program.entry in
  let count = ref 0 and sjmps = ref 0 and nesting = ref 0 in
  let halted = ref false in
  let wr r v =
    if r <> Reg.zero then begin
      regs.(r) <- v;
      Snapshot.note_write snaps r
    end
  in
  let resolve_target pc target =
    if target >= 0 && target < plen then target
    else if forgiving then ((target mod plen) + plen) mod plen
    else raise (Exec.Out_of_bounds { pc; addr = target })
  in
  while not !halted do
    if !count >= config.Exec.max_instrs then raise (Exec.Budget_exceeded !count);
    let here = !pc in
    let instr = prog.Program.code.(here) in
    let commit ?(mem_addr = 0) set =
      let u = Uop.of_instr ~pc:here instr ~mem_addr in
      set u;
      sink (Uop.Commit u)
    in
    let plain () = commit (fun _ -> ()) in
    (match instr with
     | Instr.Nop ->
       plain ();
       pc := here + 1
     | Instr.Alu (op, rd, rs1, rs2) ->
       plain ();
       wr rd (Instr.eval_alu op regs.(rs1) regs.(rs2));
       pc := here + 1
     | Instr.Alui (op, rd, rs1, imm) ->
       plain ();
       wr rd (Instr.eval_alu op regs.(rs1) imm);
       pc := here + 1
     | Instr.Li (rd, imm) ->
       plain ();
       wr rd imm;
       pc := here + 1
     | Instr.Ld (rd, base, off) ->
       let addr = regs.(base) + off in
       if addr >= 0 && addr < mw then begin
         commit ~mem_addr:addr (fun _ -> ());
         wr rd mem.(addr)
       end
       else if forgiving then begin
         let a = ((addr mod mw) + mw) mod mw in
         commit ~mem_addr:a (fun _ -> ());
         wr rd 0
       end
       else raise (Exec.Out_of_bounds { pc = here; addr });
       pc := here + 1
     | Instr.St (rs, base, off) ->
       let addr = regs.(base) + off in
       if addr >= 0 && addr < mw then begin
         commit ~mem_addr:addr (fun _ -> ());
         mem.(addr) <- regs.(rs)
       end
       else if forgiving then
         commit ~mem_addr:(((addr mod mw) + mw) mod mw) (fun _ -> ())
       else raise (Exec.Out_of_bounds { pc = here; addr });
       pc := here + 1
     | Instr.Cmov (rd, rc, rs) ->
       plain ();
       if regs.(rc) <> 0 then wr rd regs.(rs);
       pc := here + 1
     | Instr.Br { cond; rs1; rs2; target; secure } when secure && sempe ->
       let outcome = Instr.eval_cond cond regs.(rs1) regs.(rs2) in
       ignore (Jbtable.push jb);
       Jbtable.commit_sjmp jb ~dest:target ~outcome;
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_branch;
           u.Uop.secure <- true;
           u.Uop.target <- target;
           u.Uop.taken <- outcome);
       let cycles = Spm.push_full_save spm in
       Snapshot.push snaps ~regs ~outcome;
       if Snapshot.depth snaps > !nesting then nesting := Snapshot.depth snaps;
       sink (Uop.Drain { reason = Uop.Drain_enter_secblock; spm_cycles = cycles });
       incr sjmps;
       pc := here + 1
     | Instr.Br { cond; rs1; rs2; target; secure = _ } ->
       let taken = Instr.eval_cond cond regs.(rs1) regs.(rs2) in
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_branch;
           u.Uop.target <- target;
           u.Uop.taken <- taken);
       pc := (if taken then target else here + 1)
     | Instr.Jmp target ->
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_jump;
           u.Uop.target <- target);
       pc := target
     | Instr.Call target ->
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_call;
           u.Uop.target <- target;
           u.Uop.return_to <- here + 1);
       wr Reg.ra (here + 1);
       pc := target
     | Instr.Jr r ->
       let target = resolve_target here regs.(r) in
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_indirect;
           u.Uop.target <- target);
       pc := target
     | Instr.Ret ->
       let target = resolve_target here regs.(Reg.ra) in
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_ret;
           u.Uop.target <- target);
       pc := target
     | Instr.Eosjmp when sempe ->
       if Jbtable.is_empty jb then begin
         plain ();
         pc := here + 1
       end
       else begin
         match Jbtable.on_eosjmp jb with
         | Jbtable.Jump_back dest ->
           commit (fun u ->
               u.Uop.ctl <- Uop.Ctl_jumpback;
               u.Uop.target <- dest);
           let nt_mods = Snapshot.end_nt_path snaps ~regs in
           let c1 = Spm.save_modified spm ~modified:nt_mods in
           let c2 = Spm.read_modified spm ~modified:nt_mods in
           sink
             (Uop.Drain
                { reason = Uop.Drain_after_nt_path; spm_cycles = c1 + c2 });
           pc := dest
         | Jbtable.Release ->
           plain ();
           let union = Snapshot.finish snaps ~regs in
           let cycles = Spm.restore spm ~modified_union:union in
           sink
             (Uop.Drain
                { reason = Uop.Drain_exit_secblock; spm_cycles = cycles });
           pc := here + 1
       end
     | Instr.Eosjmp ->
       plain ();
       pc := here + 1
     | Instr.Halt ->
       plain ();
       halted := true);
    incr count
  done;
  {
    r_regs = regs;
    r_mem = mem;
    r_instrs = !count;
    r_sjmps = !sjmps;
    r_nesting = !nesting;
  }

(* ---- comparison driver ------------------------------------------------ *)

(* Word by word: the reference's flat image against the paged one. *)
let same_image flat mem =
  Memory.length mem = Array.length flat
  && (let rec go i = i = Array.length flat || (flat.(i) = Memory.get mem i && go (i + 1)) in
      go 0)

let check_same ~what ~config ~init_mem prog =
  (* Detailed runs: each side feeds its own fresh timing model. *)
  let t_ref = Timing.create () in
  let r = ref_run ~config ~init_mem ~sink:(Timing.feed t_ref) prog in
  let t_new = Timing.create () in
  let n = Exec.run ~config ~init_mem ~sink:(Timing.feed t_new) prog in
  Alcotest.(check (array int)) (what ^ ": registers") r.r_regs n.Exec.regs;
  Alcotest.(check bool)
    (what ^ ": memory image")
    true
    (same_image r.r_mem n.Exec.memory);
  Alcotest.(check int) (what ^ ": dyn instrs") r.r_instrs n.Exec.dyn_instrs;
  Alcotest.(check int) (what ^ ": dyn sjmps") r.r_sjmps n.Exec.dyn_sjmps;
  Alcotest.(check int) (what ^ ": max nesting") r.r_nesting n.Exec.max_nesting;
  let rep_ref = Timing.report t_ref and rep_new = Timing.report t_new in
  Alcotest.(check bool)
    (Printf.sprintf "%s: timing reports identical (%d vs %d cycles)" what
       rep_ref.Timing.cycles rep_new.Timing.cycles)
    true
    (rep_ref = rep_new);
  let warm_ref = Timing.warm_state t_ref and warm_new = Timing.warm_state t_new in
  Alcotest.(check int) (what ^ ": cache contents")
    (Warm.cache_signature warm_ref) (Warm.cache_signature warm_new);
  Alcotest.(check int) (what ^ ": predictor state")
    (Warm.predictor_signature warm_ref) (Warm.predictor_signature warm_new);
  (* Fast-forward (no sink) must agree with the instrumented run. *)
  let ff = Exec.run ~config ~init_mem prog in
  Alcotest.(check (array int)) (what ^ ": fast-forward registers") r.r_regs
    ff.Exec.regs;
  Alcotest.(check int) (what ^ ": fast-forward instrs") r.r_instrs
    ff.Exec.dyn_instrs

let mem_words = 1 lsl 14

let config_for support =
  { Exec.default_config with Exec.support; mem_words; max_instrs = 2_000_000 }

(* ---- fuzz-generated programs ------------------------------------------ *)

let pinned_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_fuzz_cases () =
  List.iter
    (fun seed ->
      let case = Gen.generate seed in
      let built = Harness.build Scheme.Sempe case.Gen.prog in
      List.iter
        (fun secrets ->
          let init_mem =
            Harness.init_mem_of built ~globals:secrets
              ~arrays:[ (Gen.array_name, case.Gen.fill) ]
          in
          check_same
            ~what:
              (Printf.sprintf "seed %d / %s" seed
                 (String.concat ","
                    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) secrets)))
            ~config:(config_for Exec.Sempe_hw) ~init_mem built.Harness.prog)
        case.Gen.secrets)
    pinned_seeds

(* ---- curated workloads ------------------------------------------------ *)

let microbench_built scheme =
  let spec = { Microbench.kernel = Kernels.fibonacci; width = 2; iters = 2 } in
  Harness.build scheme (Microbench.program ~ct:false spec)

let test_microbench () =
  List.iter
    (fun (scheme, leaf) ->
      let built = microbench_built scheme in
      let secrets = Microbench.secrets_for_leaf ~width:2 ~leaf in
      let init_mem = Harness.init_mem_of built ~globals:secrets ~arrays:[] in
      check_same
        ~what:
          (Printf.sprintf "microbench %s leaf %d" (Scheme.name scheme) leaf)
        ~config:(config_for (Scheme.support scheme))
        ~init_mem built.Harness.prog)
    [ (Scheme.Sempe, 1); (Scheme.Sempe, 3); (Scheme.Sempe_on_legacy, 2);
      (Scheme.Baseline, 1) ]

(* ---- sampled runs are worker-count independent ------------------------ *)

let test_sampling_workers () =
  let case = Gen.generate 7 in
  let built = Harness.build Scheme.Sempe case.Gen.prog in
  let secrets = List.hd case.Gen.secrets in
  let sample workers =
    Harness.sample ~mem_words ~globals:secrets
      ~arrays:[ (Gen.array_name, case.Gen.fill) ]
      ~config:
        {
          Sempe_sampling.Sampling.interval = 2000;
          coverage = 0.5;
          warmup = 500;
          offset = 0;
        }
      ~workers built
  in
  let e1 = sample 1 and e4 = sample 4 in
  Alcotest.(check bool)
    (Printf.sprintf "estimates identical at 1 and 4 workers (%d vs %d cycles)"
       e1.Sempe_sampling.Sampling.cycles_estimate
       e4.Sempe_sampling.Sampling.cycles_estimate)
    true (e1 = e4)

let tests =
  [
    Alcotest.test_case "fuzz cases old-vs-new" `Quick test_fuzz_cases;
    Alcotest.test_case "microbench old-vs-new" `Quick test_microbench;
    Alcotest.test_case "sampling worker independence" `Quick test_sampling_workers;
  ]
