(* Sampled simulation: the degenerate full-coverage path must reproduce
   the ordinary detailed run bit-exactly, checkpoints must round-trip to
   an identical remaining execution, a revived checkpoint plan must give
   the cold run's estimate, fast-forward warming must leave the
   microarchitectural state a detailed run would, estimates must be
   worker-count independent, and the estimation error must shrink (on
   average) as coverage grows — on the curated workloads and on random
   programs alike. *)

module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Run = Sempe_core.Run
module Scheme = Sempe_core.Scheme
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Warm = Sempe_pipeline.Warm
module Checkpoint = Sempe_sampling.Checkpoint
module Sampling = Sempe_sampling.Sampling
module Harness = Sempe_workloads.Harness
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Djpeg = Sempe_workloads.Djpeg
module Rsa = Sempe_workloads.Rsa
module Leakage = Sempe_security.Leakage

(* Interval/warmup sized so the sub-full coverages stay under the
   cost-model fallback threshold (see [test_cost_model_fallback]) and the
   tests keep exercising the genuinely sampled path. *)
let cfg ?(interval = 20_000) ?(warmup = 2_000) coverage =
  { Sampling.default_config with Sampling.interval; coverage; warmup }

(* (name, built, globals, arrays) — the curated perf workloads. *)
let workloads () =
  let mb kernel iters =
    let spec = { MB.kernel; width = 4; iters } in
    ( "mb-" ^ kernel.Kernels.name,
      Harness.build Scheme.Sempe (MB.program ~ct:false spec),
      MB.secrets_for_leaf ~width:4 ~leaf:1,
      [] )
  in
  let djpeg =
    let globals, arrays = Djpeg.inputs Djpeg.Ppm ~seed:42 ~blocks:8 in
    ( "djpeg-ppm",
      Harness.build Scheme.Sempe (Djpeg.program Djpeg.Ppm),
      globals,
      arrays )
  in
  [ mb Kernels.fibonacci 40; mb Kernels.quicksort 6; djpeg ]

let full_cycles built ~globals ~arrays =
  Run.cycles (Harness.run ~globals ~arrays built)

let test_full_coverage_exact () =
  List.iter
    (fun (name, built, globals, arrays) ->
      let full = full_cycles built ~globals ~arrays in
      let est = Harness.sample ~globals ~arrays ~config:(cfg 1.0) built in
      Alcotest.(check bool) (name ^ ": exact flag") true est.Sampling.exact;
      Alcotest.(check int) (name ^ ": cycles") full est.Sampling.cycles_estimate;
      Alcotest.(check int) (name ^ ": zero-width band low") full
        est.Sampling.cycles_low;
      Alcotest.(check int) (name ^ ": zero-width band high") full
        est.Sampling.cycles_high;
      Alcotest.(check bool) (name ^ ": report attached") true
        (est.Sampling.report <> None))
    (workloads ())

let test_workers_deterministic () =
  List.iter
    (fun (name, built, globals, arrays) ->
      let run workers =
        let est =
          Harness.sample ~globals ~arrays ~config:(cfg 0.25) ~workers built
        in
        (* [report] is [None] off the exact path; everything else is plain
           scalars, so structural equality is exactly what we mean. *)
        { est with Sampling.report = None }
      in
      let e1 = run 1 in
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: workers=%d equals workers=1" name w)
            true
            (run w = e1))
        [ 2; 8 ])
    (workloads ())

(* A recorded checkpoint plan, revived, skips the fast-forward pass and
   gives the cold run's estimate byte for byte: each measurement is a
   pure function of its checkpoint. A plan recorded under other interval
   boundaries is refused rather than measured. *)
let test_plan_reuse_byte_equal () =
  List.iter
    (fun (name, built, globals, arrays) ->
      let sample ?plan ?plan_out coverage =
        Harness.sample ~globals ~arrays ~config:(cfg coverage) ?plan ?plan_out
          built
      in
      let render est = Sempe_obs.Json.to_string (Sampling.to_json est) in
      let captured = ref None in
      let cold = sample ~plan_out:(fun p -> captured := Some p) 0.1 in
      match !captured with
      | None -> Alcotest.fail (name ^ ": the fast-forward pass exported no plan")
      | Some plan ->
        Alcotest.(check string)
          (name ^ ": revived estimate byte-identical to the cold run")
          (render cold)
          (render (sample ~plan 0.1));
        Alcotest.check_raises (name ^ ": a plan of another stride is refused")
          (Invalid_argument
             "Sampling.estimate: plan was recorded under a different \
              interval/warmup/coverage/offset")
          (fun () -> ignore (sample ~plan 0.25)))
    (workloads ())

(* Fast-forward functional warming must drive the caches and predictors
   through the same state trajectory as the detailed timing model: after
   a complete run, the content signatures must agree exactly. *)
let test_warm_fidelity () =
  List.iter
    (fun (name, built, globals, arrays) ->
      (* Drive both modes by hand over the same program + inputs. *)
      let prog = built.Harness.prog in
      let exec_config =
        { Exec.default_config with Exec.support = Scheme.support built.scheme }
      in
      let init_mem = Harness.init_mem_of built ~globals ~arrays in
      let timing = Timing.create () in
      let (_ : Exec.result) =
        Exec.run ~config:exec_config ~init_mem ~sink:(Timing.feed timing) prog
      in
      let warm = Warm.create () in
      let (_ : Exec.result) =
        Exec.finish (Exec.start ~config:exec_config ~init_mem ~warm prog)
      in
      let detailed_warm = Timing.warm_state timing in
      Alcotest.(check int) (name ^ ": predictor/BTB/ITTAGE signature")
        (Warm.predictor_signature detailed_warm)
        (Warm.predictor_signature warm);
      Alcotest.(check int) (name ^ ": cache-hierarchy signature")
        (Warm.cache_signature detailed_warm)
        (Warm.cache_signature warm))
    (workloads ())

(* Save a checkpoint mid-run, restore it twice, and run each restore to
   completion under a detailed timing model: both must produce the same
   remaining commit trace and the same report (restores are independent
   deep copies), and agree with the uncheckpointed reference about the
   architectural outcome. *)
let test_checkpoint_roundtrip () =
  let built = Harness.build Scheme.Sempe Rsa.program in
  let globals, arrays = Rsa.inputs ~key:0x1234 ~base:1234 ~modulus:99991 in
  let prog = built.Harness.prog in
  let exec_config =
    { Exec.default_config with Exec.support = Scheme.support built.scheme }
  in
  let init_mem = Harness.init_mem_of built ~globals ~arrays in
  let reference = Run.execute ~support:(Scheme.support built.scheme) ~init_mem prog in
  let cut = 300 in
  Alcotest.(check bool) "cut point is mid-run" true
    (cut < reference.Exec.dyn_instrs);
  let warm = Warm.create () in
  let sess = Exec.start ~config:exec_config ~init_mem ~warm prog in
  let (_ : bool) = Exec.step_slice sess cut in
  let ckpt = Checkpoint.save ~arch:(Exec.capture sess) ~warm in
  Alcotest.(check int) "checkpoint instruction count" cut
    (Checkpoint.instructions ckpt);
  Alcotest.(check bool) "checkpoint not halted" false (Checkpoint.halted ckpt);
  Alcotest.(check bool) "checkpoint has bytes" true
    (Checkpoint.size_bytes ckpt > 0);
  let replay () =
    let arch, warm = Checkpoint.restore ckpt in
    let digest = ref 2166136261 in
    let timing = Timing.create ~warm () in
    let sink ev =
      Timing.feed timing ev;
      match ev with
      | Sempe_pipeline.Uop.Commit u ->
        digest := (!digest * 16777619) lxor u.Sempe_pipeline.Uop.pc
      | Sempe_pipeline.Uop.Drain _ -> ()
    in
    let res = Exec.finish (Exec.resume ~sink prog arch) in
    (!digest, Timing.report timing, res)
  in
  let d1, r1, res1 = replay () in
  let d2, r2, res2 = replay () in
  Alcotest.(check int) "remaining trace digests agree" d1 d2;
  Alcotest.(check bool) "remaining reports agree" true (r1 = r2);
  Alcotest.(check int) "remaining instructions" (reference.Exec.dyn_instrs - cut)
    r1.Timing.instructions;
  Alcotest.(check int) "total instructions"
    reference.Exec.dyn_instrs res1.Exec.dyn_instrs;
  Alcotest.(check bool) "architectural registers agree" true
    (res1.Exec.regs = reference.Exec.regs && res2.Exec.regs = reference.Exec.regs);
  Alcotest.(check bool) "memory images agree" true
    (Memory.equal res1.Exec.memory reference.Exec.memory)

(* Unwritten memory pages must come back from a checkpoint, or from a raw
   [Marshal] of a capture, without sharing storage: writing two of them
   after the restore leaves each page holding only its own words. The
   program's stores all follow the cut and go to pages 2 and 3; pages 1-3
   are unwritten when the checkpoint is taken. *)
let test_restored_pages_independent () =
  let module Builder = Sempe_isa.Builder in
  let module Reg = Sempe_isa.Reg in
  let page = Memory.page_size in
  let words = (4 * page) + 100 in
  let b = Builder.create () in
  Builder.bind b "entry";
  List.iter
    (fun (r, v, addr) ->
      Builder.li b r v;
      Builder.st b r Reg.gp addr)
    [ (10, 11, (2 * page) + 5); (11, 22, (3 * page) + 5); (12, 33, (3 * page) + 7) ];
  Builder.halt b;
  let prog = Builder.assemble b ~entry:"entry" ~data_words:1 in
  let config = { Exec.default_config with Exec.mem_words = words } in
  let init_mem m =
    Memory.set m 0 42;
    Memory.set m ((4 * page) + 50) 7
  in
  let warm = Warm.create () in
  let sess = Exec.start ~config ~init_mem ~warm prog in
  let (_ : bool) = Exec.step_slice sess 1 in
  let arch = Exec.capture sess in
  let ckpt = Checkpoint.save ~arch ~warm in
  let marshaled = Marshal.to_string arch [] in
  let check label (mem : Memory.t) =
    List.iter
      (fun (addr, want) ->
        Alcotest.(check int) (Printf.sprintf "%s: word %d" label addr) want
          (Memory.get mem addr))
      [ (0, 42); ((4 * page) + 50, 7); ((2 * page) + 5, 11); ((3 * page) + 5, 22);
        ((3 * page) + 7, 33); ((2 * page) + 7, 0); (page + 5, 0); (page + 7, 0) ]
  in
  for round = 1 to 2 do
    let arch, _ = Checkpoint.restore ckpt in
    check (Printf.sprintf "checkpoint restore %d" round)
      (Exec.finish (Exec.resume prog arch)).Exec.memory
  done;
  let arch : Exec.arch = Marshal.from_string marshaled 0 in
  check "marshaled capture" (Exec.finish (Exec.resume prog arch)).Exec.memory;
  check "original session" (Exec.finish sess).Exec.memory;
  let m : Memory.t = Marshal.from_string (Marshal.to_string (Memory.create words) []) 0 in
  Memory.set m ((2 * page) + 5) 11;
  Memory.set m ((3 * page) + 5) 22;
  Memory.set m ((3 * page) + 7) 33;
  List.iter (fun (a, v) -> Memory.set m a v) [ (0, 42); ((4 * page) + 50, 7) ];
  check "marshaled memory" m

(* Mean relative error over the curated workloads must not grow as
   coverage grows. The sweep is fully deterministic, so this is a fixed
   property of the tree, not a flaky statistical assertion; the small
   epsilon absorbs rounding-level wobble between adjacent levels. *)
let coverages = [ 0.05; 0.25; 0.75 ]

let check_error_shrinks name errors_by_coverage =
  let eps = 0.005 in
  let rec pairs = function
    | (c_lo, e_lo) :: ((c_hi, e_hi) :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: mean error at %.0f%% (%.4f) <= at %.0f%% (%.4f) + eps"
           name (100. *. c_hi) e_hi (100. *. c_lo) e_lo)
        true
        (e_hi <= e_lo +. eps);
      pairs rest
    | _ -> ()
  in
  pairs errors_by_coverage

let test_error_shrinks_with_coverage () =
  let ws = workloads () in
  let mean_err coverage =
    let errs =
      List.map
        (fun (_, built, globals, arrays) ->
          let full = full_cycles built ~globals ~arrays in
          let est =
            Harness.sample ~globals ~arrays ~config:(cfg coverage) built
          in
          Sampling.relative_error est ~cycles:full)
        ws
    in
    List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)
  in
  check_error_shrinks "curated workloads"
    (List.map (fun c -> (c, mean_err c)) coverages)

(* The same property on random programs, which exercise arbitrary control
   flow, secret regions and memory traffic. The programs are small, so
   the intervals are scaled to each program's dynamic length (programs
   too short to sample fall back to the exact path with zero error —
   which only ever helps the monotonicity being asserted). Such tiny
   intervals could never pay for the sampling machinery, so the
   cost-model fallback is disabled to keep the sampler itself under
   test. *)
let test_error_shrinks_random_programs () =
  let rand = Random.State.make [| 0x5e39e |] in
  let progs =
    QCheck.Gen.generate ~n:12 ~rand Test_random_progs.gen_program
  in
  let cases =
    List.map
      (fun (prog, fill) ->
        let built = Harness.build Scheme.Sempe prog in
        let globals = [ ("s0", 1); ("s1", 0) ] in
        let arrays = [ ("arr", Array.of_list fill) ] in
        let outcome = Harness.run ~globals ~arrays ~mem_words:(1 lsl 14) built in
        (built, globals, arrays, Run.cycles outcome,
         outcome.Run.timing.Timing.instructions))
      progs
  in
  let mean_err coverage =
    let errs =
      List.map
        (fun (built, globals, arrays, full, n) ->
          let interval = max 20 (n / 25) in
          let config = cfg ~interval ~warmup:(interval / 4) coverage in
          let est =
            Harness.sample ~globals ~arrays ~mem_words:(1 lsl 14) ~config
              ~cost_fallback:false built
          in
          Alcotest.(check int)
            "sampled instruction count matches the full run" n
            est.Sampling.instructions;
          Sampling.relative_error est ~cycles:full)
        cases
    in
    List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)
  in
  check_error_shrinks "random programs"
    (List.map (fun c -> (c, mean_err c)) coverages);
  (* And full coverage is exact on every random program. *)
  List.iter
    (fun (built, globals, arrays, full, n) ->
      let interval = max 20 (n / 25) in
      let config = cfg ~interval 1.0 in
      let est =
        Harness.sample ~globals ~arrays ~mem_words:(1 lsl 14) ~config built
      in
      Alcotest.(check int) "random program: 100% coverage is exact" full
        est.Sampling.cycles_estimate)
    cases

(* The cost model must keep the default config on the sampled path, and
   divert configurations that cannot pay for their own machinery to the
   exact path — same price in the model, exact answer instead of a noisy
   estimate. *)
let test_cost_model_fallback () =
  Alcotest.(check bool) "default config promises a win" true
    (Sampling.predicted_cost_ratio Sampling.default_config
    < Sampling.fallback_threshold);
  (* Tiny intervals under heavy warmup: every measured interval costs a
     multiple of what it measures. *)
  let bad = cfg ~interval:2_000 ~warmup:2_000 0.5 in
  Alcotest.(check bool) "mis-sized config trips the threshold" true
    (Sampling.predicted_cost_ratio bad >= Sampling.fallback_threshold);
  let name, built, globals, arrays = List.hd (workloads ()) in
  let full = full_cycles built ~globals ~arrays in
  let est = Harness.sample ~globals ~arrays ~config:bad built in
  Alcotest.(check bool) (name ^ ": fell back to exact") true est.Sampling.exact;
  Alcotest.(check int) (name ^ ": exact cycles") full
    est.Sampling.cycles_estimate;
  Alcotest.(check bool) (name ^ ": report attached") true
    (est.Sampling.report <> None);
  (* [~cost_fallback:false] forces the same config down the sampled path:
     the machinery engages and measures a strict subset of intervals. *)
  let forced =
    Harness.sample ~globals ~arrays ~config:bad ~cost_fallback:false built
  in
  Alcotest.(check bool) (name ^ ": forced sampling is not exact") false
    forced.Sampling.exact;
  Alcotest.(check bool)
    (name ^ ": forced sampling measures a strict subset") true
    (forced.Sampling.intervals_measured < forced.Sampling.intervals_total)

(* RSA is shorter than one default interval, so at the default config
   (cost ratio well under the fallback threshold) the sampler measures
   interval 0 alone, from instruction 0 with no warmup: one detailed run
   over the whole program, which must count exactly the full run's
   cycles. *)
let test_single_interval_matches_full () =
  let built = Harness.build Scheme.Sempe Rsa.program in
  let globals, arrays = Rsa.inputs ~key:0x1234 ~base:1234 ~modulus:99991 in
  let config = Sampling.default_config in
  Alcotest.(check bool) "sampled path" true
    (Sampling.predicted_cost_ratio config < Sampling.fallback_threshold);
  let full = full_cycles built ~globals ~arrays in
  let est = Harness.sample ~globals ~arrays ~config built in
  Alcotest.(check bool) "not the exact path" false est.Sampling.exact;
  Alcotest.(check int) "one interval" 1 est.Sampling.intervals_measured;
  Alcotest.(check int) "estimate equals the full run" full
    est.Sampling.cycles_estimate;
  Alcotest.(check bool) "band contains the full run" true
    (Sampling.contains est ~cycles:full)

let test_config_validation () =
  let built = Harness.build Scheme.Sempe Rsa.program in
  let globals, arrays = Rsa.inputs ~key:3 ~base:2 ~modulus:97 in
  let sample config () =
    ignore (Harness.sample ~globals ~arrays ~config built)
  in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Sampling.estimate: interval must be positive")
    (sample { Sampling.default_config with Sampling.interval = 0 });
  Alcotest.check_raises "coverage over 1"
    (Invalid_argument "Sampling.estimate: coverage must be in (0, 1]")
    (sample { Sampling.default_config with Sampling.coverage = 1.5 });
  Alcotest.check_raises "coverage zero"
    (Invalid_argument "Sampling.estimate: coverage must be in (0, 1]")
    (sample { Sampling.default_config with Sampling.coverage = 0. })

(* Satellite: comparing fewer than two attacker views is a harness bug,
   not a "no leak" result. *)
let test_leakage_needs_two_views () =
  let msg =
    Invalid_argument "Leakage.compare_views: need at least 2 views to compare"
  in
  Alcotest.check_raises "empty view list" msg (fun () ->
      ignore (Leakage.compare_views []));
  let one =
    {
      Sempe_security.Observable.cycles = 1;
      instructions = 1;
      pc_digest = 0;
      pc_digest2 = 0;
      addr_digest = 0;
      addr_digest2 = 0;
      mem_ops = 0;
      il1_sig = 0;
      dl1_sig = 0;
      l2_sig = 0;
      bpred_sig = 0;
      il1_accesses = 0;
      il1_misses = 0;
      dl1_accesses = 0;
      dl1_misses = 0;
      l2_accesses = 0;
      l2_misses = 0;
      mispredicts = 0;
    }
  in
  Alcotest.check_raises "single view" msg (fun () ->
      ignore (Leakage.compare_views [ one ]));
  Alcotest.check_raises "leaky_channels single view" msg (fun () ->
      ignore (Leakage.leaky_channels [ one ]))

let tests =
  [
    Alcotest.test_case "full coverage is exact" `Quick test_full_coverage_exact;
    Alcotest.test_case "estimate independent of worker count" `Quick
      test_workers_deterministic;
    Alcotest.test_case "checkpoint plan reuse byte-equal" `Quick
      test_plan_reuse_byte_equal;
    Alcotest.test_case "ff warming matches detailed warming" `Quick
      test_warm_fidelity;
    Alcotest.test_case "checkpoint round-trip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "restored unwritten pages stay independent" `Quick
      test_restored_pages_independent;
    Alcotest.test_case "error shrinks with coverage (curated)" `Slow
      test_error_shrinks_with_coverage;
    Alcotest.test_case "error shrinks with coverage (random programs)" `Slow
      test_error_shrinks_random_programs;
    Alcotest.test_case "cost-model fallback" `Quick test_cost_model_fallback;
    Alcotest.test_case "single interval matches the full run" `Quick
      test_single_interval_matches_full;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "leakage needs two views" `Quick
      test_leakage_needs_two_views;
  ]
