(* Timing-model behaviors: width limits, dependence chains, memory latency,
   misprediction penalties, secure-branch bypass and drains. *)

open Sempe_isa
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Uop = Sempe_pipeline.Uop
module Warm = Sempe_pipeline.Warm
module Stall = Sempe_pipeline.Stall

(* Fresh records per event (the timing model never retains them, but list
   literals built once here are replayed across runs). *)
let uop ~pc ~cls ~dst ~srcs ~mem_addr =
  let u = Uop.make () in
  u.Uop.pc <- pc;
  u.Uop.cls <- cls;
  u.Uop.dst <- dst;
  u.Uop.srcs <- Array.of_list srcs;
  u.Uop.mem_addr <- mem_addr;
  u

let alu ~pc ~dst ~srcs =
  Uop.Commit (uop ~pc ~cls:Instr.Cls_int_alu ~dst ~srcs ~mem_addr:0)

let load ?(srcs = []) ~pc ~dst ~addr () =
  Uop.Commit (uop ~pc ~cls:Instr.Cls_load ~dst ~srcs ~mem_addr:addr)

let store ~pc ~src ~addr =
  Uop.Commit
    (uop ~pc ~cls:Instr.Cls_store ~dst:Uop.no_dst ~srcs:[ src ] ~mem_addr:addr)

let branch ~pc ~taken ~target ~secure =
  let u = uop ~pc ~cls:Instr.Cls_branch ~dst:Uop.no_dst ~srcs:[] ~mem_addr:0 in
  u.Uop.ctl <- Uop.Ctl_branch;
  u.Uop.taken <- taken;
  u.Uop.target <- target;
  u.Uop.secure <- secure;
  Uop.Commit u

let run events =
  let t = Timing.create () in
  List.iter (Timing.feed t) events;
  Timing.report t

let test_independent_throughput () =
  (* Independent ALU ops on an 8-wide machine: marginal IPC (netting out the
     cold-start icache miss) should approach the fetch width. *)
  let cycles n =
    (run (List.init n (fun k -> alu ~pc:(k land 15) ~dst:(8 + (k mod 32)) ~srcs:[])))
      .Timing.cycles
  in
  let marginal = float_of_int (cycles 3000 - cycles 800) /. 2200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state near fetch width (marginal cpi=%.3f)" marginal)
    true (marginal < 0.2)

let test_dependence_chain_serializes () =
  (* A chain through one register runs at ~1 op/cycle. *)
  let n = 400 in
  let evs = List.init n (fun k -> alu ~pc:(k land 15) ~dst:8 ~srcs:[ 8 ]) in
  let r = run evs in
  Alcotest.(check bool)
    (Printf.sprintf "serialized (cpi=%.2f)" r.Timing.cpi)
    true (r.Timing.cpi > 0.9)

let test_load_ports_limit () =
  (* Independent loads to the same warm line: bounded by 2 loads/cycle. *)
  let warm = load ~pc:0 ~dst:8 ~addr:0 () in
  let evs = warm :: List.init 400 (fun k -> load ~pc:1 ~dst:(8 + (k mod 8)) ~addr:0 ()) in
  let r = run evs in
  Alcotest.(check bool)
    (Printf.sprintf "load-port bound (cpi=%.2f)" r.Timing.cpi)
    true (r.Timing.cpi > 0.4)

let test_cache_miss_visible () =
  (* A dependent chain of loads with huge stride (all misses) costs ~memory
     latency each; the same chain to one line costs ~L1 latency. *)
  (* address-dependent chain: each load waits for the previous one *)
  let chain addr_of =
    List.init 50 (fun k -> load ~srcs:[ 8 ] ~pc:(k land 7) ~dst:8 ~addr:(addr_of k) ())
  in
  (* irregular strides so the stride prefetcher cannot hide them *)
  let slow = run (chain (fun k -> (k * k * 6151) mod 9_000_000)) in
  let fast = run (chain (fun _ -> 0)) in
  Alcotest.(check bool) "misses dominate" true
    (slow.Timing.cycles > 4 * fast.Timing.cycles);
  Alcotest.(check bool) "miss rate high" true (slow.Timing.dl1_miss_rate > 0.9)

let test_store_forwarding () =
  (* load after store to the same word completes shortly after the store,
     not at memory latency. *)
  let evs =
    [ store ~pc:0 ~src:8 ~addr:77; load ~pc:1 ~dst:9 ~addr:77 () ]
  in
  let r = run evs in
  Alcotest.(check bool) "short" true (r.Timing.cycles < 250)

let test_mispredicts_cost () =
  (* Random-looking alternation at one PC is learnable; a pseudo-random
     pattern across many PCs with random outcomes mispredicts often.
     Compare biased (all taken) vs adversarial outcomes on same structure. *)
  let mk outcome_of =
    List.concat
      (List.init 300 (fun k ->
           [
             alu ~pc:(k land 3) ~dst:8 ~srcs:[];
             branch ~pc:64 ~taken:(outcome_of k) ~target:70 ~secure:false;
           ]))
  in
  let biased = run (mk (fun _ -> true)) in
  let rng = Sempe_util.Rng.create 99 in
  let noise = Array.init 300 (fun _ -> Sempe_util.Rng.bool rng) in
  let random = run (mk (fun k -> noise.(k))) in
  Alcotest.(check bool) "random outcomes mispredict more" true
    (random.Timing.mispredicts > biased.Timing.mispredicts + 50);
  Alcotest.(check bool) "mispredicts cost cycles" true
    (random.Timing.cycles > biased.Timing.cycles)

let test_secure_branch_bypasses_predictor () =
  (* sJMPs never touch the predictor: mispredict count stays zero and the
     predictor state stays at its reset signature. *)
  let t = Timing.create () in
  let predictor () = Warm.predictor_signature (Timing.warm_state t) in
  let sig0 = predictor () in
  for k = 0 to 99 do
    Timing.feed t (branch ~pc:(k land 7) ~taken:(k land 1 = 0) ~target:0 ~secure:true)
  done;
  let r = Timing.report t in
  Alcotest.(check int) "no mispredicts" 0 r.Timing.mispredicts;
  Alcotest.(check int) "100 sjmps" 100 r.Timing.secure_branches;
  Alcotest.(check int) "predictor untouched" sig0 (predictor ())

let test_drain_stalls () =
  let body = List.init 50 (fun k -> alu ~pc:k ~dst:8 ~srcs:[]) in
  let plain = run (body @ body) in
  let drained =
    run
      (body
      @ [ Uop.Drain { reason = Uop.Drain_enter_secblock; spm_cycles = 500 } ]
      @ body)
  in
  Alcotest.(check bool) "drain adds at least the SPM cycles" true
    (drained.Timing.cycles >= plain.Timing.cycles + 500);
  Alcotest.(check int) "drain counted" 1 drained.Timing.drains;
  Alcotest.(check int) "spm cycles counted" 500 drained.Timing.spm_cycles

let test_btb_installed_on_mispredicted_taken () =
  (* Regression: a taken branch must install its BTB target when it
     resolves even if its direction mispredicted; otherwise the branch
     still pays the btb_miss_bubble at its next correctly-predicted taken
     occurrence (and a branch only ever resolved taken under mispredicts
     never gets a target at all). A cold TAGE predicts not-taken, so the
     first taken occurrence of a branch is a pure mispredict. *)
  let w = Warm.create () in
  Alcotest.(check bool) "cold predictor mispredicts a taken branch" true
    (match Warm.cond_branch w ~pc:64 ~taken:true ~target:70 with
     | Warm.Cond_mispredict -> true
     | _ -> false);
  Alcotest.(check (option int)) "resolved taken branch installed its BTB target"
    (Some 70)
    (Sempe_bpred.Btb.lookup (Warm.btb w) ~pc:64);
  (* Behavioral side: with the target installed at resolution, the one
     mispredict is the only redirect of the run; every later occurrence
     is predicted taken and hits the BTB. *)
  let t = Timing.create () in
  for k = 0 to 39 do
    Timing.feed t (alu ~pc:(k land 3) ~dst:8 ~srcs:[]);
    Timing.feed t (branch ~pc:64 ~taken:true ~target:70 ~secure:false)
  done;
  let r = Timing.report t in
  Alcotest.(check int) "one mispredict" 1 r.Timing.mispredicts;
  let redirect = r.Timing.stall_stack.(Stall.index Stall.Redirect) in
  let slack =
    (* one redirect from resolution plus refilling the drained front end *)
    Config.default.Config.redirect_penalty
    + Config.default.Config.frontend_depth
    + Config.default.Config.btb_miss_bubble
  in
  Alcotest.(check bool)
    (Printf.sprintf "no per-branch bubble after the mispredict (%d redirect cycles)"
       redirect)
    true (redirect <= slack)

let test_store_table_bounded () =
  (* The store-forwarding ring is direct-mapped: occupancy never exceeds
     the slot count regardless of how many distinct addresses are
     stored. *)
  let t = Timing.create ~store_slots:64 () in
  let n = 20_000 in
  for k = 0 to n - 1 do
    Timing.feed t (store ~pc:(k land 7) ~src:8 ~addr:k)
  done;
  let entries = Timing.store_entries t in
  Alcotest.(check bool)
    (Printf.sprintf "store ring bounded (%d entries after %d stores)" entries n)
    true
    (entries <= 64)

let test_store_ring_forwards () =
  (* A load of a just-stored word must see the forwarded completion
     (later than a plain L1 hit would allow), and a ring large enough to
     avoid collisions reports the same cycles as the default. *)
  let trace =
    List.concat
      (List.init 4_000 (fun k ->
           [
             store ~pc:(k land 7) ~src:8 ~addr:(k land 1023);
             load ~pc:((k + 1) land 7) ~dst:9 ~addr:((k - 3) land 1023) ();
             alu ~pc:((k + 2) land 7) ~dst:8 ~srcs:[ 9 ];
           ]))
  in
  let run ?store_slots () =
    let t = Timing.create ?store_slots () in
    List.iter (Timing.feed t) trace;
    Timing.report t
  in
  let default = run () in
  (* All addresses are < 1024, so any ring >= 1024 slots is collision-free
     and equivalent — the default 4096 included. *)
  let big = run ~store_slots:8192 () in
  Alcotest.(check int) "cycles unchanged by a larger collision-free ring"
    default.Timing.cycles big.Timing.cycles;
  Alcotest.(check int) "instructions unchanged" default.Timing.instructions
    big.Timing.instructions

let test_port_ring_grows () =
  (* A dependent chain of load misses, each followed by eleven ALU ops
     reading the loaded register. Each load issues a memory latency after
     the previous one, so the µops of one ROB's worth request cycles
     thousands above the port rings' floor, and each miss's eleven
     readers contend for the eight issue ports at one far cycle. The ring
     must grow, not alias; 11,964 cycles is what the fixed 32,768-slot
     ring it replaced reported for this trace. *)
  let trace =
    List.concat
      (List.init 64 (fun k ->
           load ~srcs:[ 8 ] ~pc:(k land 7) ~dst:8
             ~addr:((k * k * 6151) mod 9_000_000) ()
           :: List.init 11 (fun j -> alu ~pc:(8 + j) ~dst:(16 + j) ~srcs:[ 8 ])))
  in
  let t = Timing.create () in
  List.iter (Timing.feed t) trace;
  let r = Timing.report t in
  Alcotest.(check bool)
    (Printf.sprintf "ring grew past 256 slots (%d)" (Timing.port_slots t))
    true
    (Timing.port_slots t > 256);
  Alcotest.(check int) "instructions" 768 r.Timing.instructions;
  Alcotest.(check int) "cycles pinned" 11_964 r.Timing.cycles

let test_create_allocation () =
  (* A fresh model's fixed cost, about 51,000 words with 256-slot port
     rings (about 184,000 with the 32,768-slot rings they replaced). The
     minimum of a few creates: once other domains have run, the domain's
     allocation counters can pick up unrelated words across one
     measurement. *)
  let words () =
    let before = Gc.allocated_bytes () in
    let t = Timing.create () in
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity t);
    (after -. before) /. float_of_int (Sys.word_size / 8)
  in
  let w = List.fold_left Float.min infinity (List.init 5 (fun _ -> words ())) in
  Alcotest.(check bool)
    (Printf.sprintf "Timing.create allocates %.0f words <= 64 Ki" w)
    true
    (w <= 65_536.)

let test_report_allocation () =
  (* A report allocates the record, its boxed rates and the stall-stack
     copy, about 50 words, and nothing per cache line: the three cache
     signatures fold their lines in plain loops (a closure per line cost
     about 34,000 words per report). Everything here is a small block, so
     [Gc.minor_words] counts it exactly; [Gc.allocated_bytes] can miss
     minor words on OCaml 5. The minimum of a few reports, as above. *)
  let t = Timing.create () in
  List.iter (Timing.feed t)
    (List.init 300 (fun k -> load ~pc:(k land 31) ~dst:(8 + (k mod 8)) ~addr:(k * 72) ()));
  let words () =
    let before = Gc.minor_words () in
    let r = Timing.report t in
    let after = Gc.minor_words () in
    ignore (Sys.opaque_identity r);
    after -. before
  in
  let w = List.fold_left Float.min infinity (List.init 5 (fun _ -> words ())) in
  Alcotest.(check bool)
    (Printf.sprintf "Timing.report allocates %.0f words <= 256" w)
    true
    (w <= 256.)

let test_hot_path_allocation () =
  (* The probe-free simulation modes allocate nothing per instruction: a
     closure or an event record per µop would cost about 2 words per
     instruction, while the per-run fixed cost (session setup, the report)
     spreads to ~0.02-0.03 words over Fibonacci at W=4 and 150
     iterations, 960,946 instructions. The minimum of three runs, as
     above. *)
  let module Exec = Sempe_core.Exec in
  let module Harness = Sempe_workloads.Harness in
  let module MB = Sempe_workloads.Microbench in
  let spec = { MB.kernel = Sempe_workloads.Kernels.fibonacci; width = 4; iters = 150 } in
  let built = Harness.build Sempe_core.Scheme.Sempe (MB.program ~ct:false spec) in
  let init_mem =
    Harness.init_mem_of built
      ~globals:(MB.secrets_for_leaf ~width:4 ~leaf:1)
      ~arrays:[]
  in
  let prog = built.Harness.prog in
  let config = { Exec.default_config with Exec.mem_words = 1 lsl 20 } in
  let modes =
    [
      ("functional", fun () -> Exec.run ~config ~init_mem prog);
      ( "functional + warm",
        fun () ->
          let warm = Sempe_pipeline.Warm.create () in
          Exec.finish (Exec.start ~config ~init_mem ~warm prog) );
      ( "full detailed",
        fun () ->
          let timing = Timing.create () in
          Exec.run ~config ~init_mem ~sink:(Timing.feed timing) prog );
    ]
  in
  List.iter
    (fun (name, run) ->
      let per_instr () =
        let before = Gc.minor_words () in
        let res = run () in
        let after = Gc.minor_words () in
        Alcotest.(check int) (name ^ " instructions") 960_946 res.Exec.dyn_instrs;
        (after -. before) /. float_of_int res.Exec.dyn_instrs
      in
      let w =
        List.fold_left Float.min infinity (List.init 3 (fun _ -> per_instr ()))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s allocates %.3f words/instr <= 0.05" name w)
        true (w <= 0.05))
    modes

let test_retire_width_bound () =
  (* Nothing retires faster than retire_width per cycle. *)
  let n = 2400 in
  let evs = List.init n (fun k -> alu ~pc:(k land 7) ~dst:(8 + (k mod 40)) ~srcs:[]) in
  let r = run evs in
  let min_cycles = n / Config.default.Config.retire_width in
  Alcotest.(check bool) "retire bound respected" true (r.Timing.cycles >= min_cycles)

let test_report_consistency () =
  let evs = List.init 100 (fun k -> alu ~pc:k ~dst:8 ~srcs:[]) in
  let r = run evs in
  Alcotest.(check int) "instruction count" 100 r.Timing.instructions;
  Alcotest.(check (float 1e-9)) "cpi consistent"
    (float_of_int r.Timing.cycles /. 100.0)
    r.Timing.cpi

let tests =
  [
    Alcotest.test_case "independent throughput" `Quick test_independent_throughput;
    Alcotest.test_case "dependence chain" `Quick test_dependence_chain_serializes;
    Alcotest.test_case "load ports" `Quick test_load_ports_limit;
    Alcotest.test_case "cache miss visible" `Quick test_cache_miss_visible;
    Alcotest.test_case "store forwarding" `Quick test_store_forwarding;
    Alcotest.test_case "mispredict cost" `Quick test_mispredicts_cost;
    Alcotest.test_case "sjmp bypasses predictor" `Quick test_secure_branch_bypasses_predictor;
    Alcotest.test_case "drain stalls" `Quick test_drain_stalls;
    Alcotest.test_case "btb install on mispredicted taken" `Quick
      test_btb_installed_on_mispredicted_taken;
    Alcotest.test_case "store ring bounded" `Quick test_store_table_bounded;
    Alcotest.test_case "store ring forwards" `Quick test_store_ring_forwards;
    Alcotest.test_case "port ring grows exactly" `Quick test_port_ring_grows;
    Alcotest.test_case "create allocation" `Quick test_create_allocation;
    Alcotest.test_case "report allocation" `Quick test_report_allocation;
    Alcotest.test_case "hot path allocation" `Quick test_hot_path_allocation;
    Alcotest.test_case "retire width bound" `Quick test_retire_width_bound;
    Alcotest.test_case "report consistency" `Quick test_report_consistency;
  ]
