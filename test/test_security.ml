(* End-to-end validation of the paper's security claim: under the baseline
   the secret is visible through timing / trace / cache / predictor
   channels; under SeMPE (and the software schemes) every attacker-visible
   channel is silent. *)

module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa
module Scheme = Sempe_core.Scheme
module Observable = Sempe_security.Observable
module Leakage = Sempe_security.Leakage
module Attacker = Sempe_security.Attacker
module Sink = Sempe_obs.Sink

let rsa_view scheme ~key =
  let built = Harness.build scheme Rsa.program in
  let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
  let recorder = Observable.recorder () in
  let outcome =
    Harness.run ~globals ~arrays
      ~sink:(Sink.of_probe (Observable.probe recorder))
      built
  in
  let expected = Rsa.reference ~key ~base:1234 ~modulus:99991 in
  Alcotest.(check int)
    (Printf.sprintf "%s key=%d result" (Scheme.name scheme) key)
    expected
    (Harness.return_value outcome);
  Observable.view recorder outcome

let keys = [ 0x0000; 0xffff; 0xa5a5; 0x0001; 0x8000; 0x1234 ]

let views scheme = List.map (fun key -> rsa_view scheme ~key) keys

let test_baseline_leaks () =
  let leaky = Leakage.leaky_channels (views Scheme.Baseline) in
  List.iter
    (fun ch ->
      Alcotest.(check bool)
        (Leakage.channel_name ch ^ " leaks under baseline")
        true (List.mem ch leaky))
    [ Leakage.Timing; Leakage.Trace; Leakage.Bpred; Leakage.Instruction_count ]

let test_protected_schemes_silent () =
  List.iter
    (fun scheme ->
      let leaky = Leakage.leaky_channels (views scheme) in
      Alcotest.(check (list string))
        (Scheme.name scheme ^ " has no leaky channels")
        []
        (List.map Leakage.channel_name leaky))
    [ Scheme.Sempe; Scheme.Cte; Scheme.Raccoon; Scheme.Mto ]

let test_annotated_on_legacy_still_leaks () =
  (* Backward compatibility is explicit about this: the annotated binary on
     a legacy machine runs correctly but without the guarantee. *)
  let leaky = Leakage.leaky_channels (views Scheme.Sempe_on_legacy) in
  Alcotest.(check bool) "legacy run of annotated binary leaks" true
    (leaky <> [])

let test_timing_attack () =
  let run scheme ~key =
    (rsa_view scheme ~key).Observable.cycles
  in
  let sample_keys = [ 0x0000; 0x0101; 0x1111; 0x5555; 0x7777; 0xffff; 0x00ff ] in
  let corr_base =
    Attacker.timing_key_correlation ~run:(run Scheme.Baseline) ~keys:sample_keys
  in
  let corr_sempe =
    Attacker.timing_key_correlation ~run:(run Scheme.Sempe) ~keys:sample_keys
  in
  Alcotest.(check bool)
    (Printf.sprintf "baseline correlation high (%.3f)" corr_base)
    true (corr_base > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "sempe correlation ~0 (%.3f)" corr_sempe)
    true (Float.abs corr_sempe < 0.05)

let test_bit_recovery () =
  let run scheme ~key = (rsa_view scheme ~key).Observable.cycles in
  (* On the baseline, flipping any key bit perturbs the timing; under SeMPE
     no bit is observable. *)
  let observable scheme =
    List.filter
      (fun bit -> Attacker.recover_bit ~run:(run scheme) ~base_key:0x1234 ~bit)
      [ 0; 3; 7; 11; 15 ]
  in
  Alcotest.(check bool) "baseline exposes key bits" true
    (List.length (observable Scheme.Baseline) >= 4);
  Alcotest.(check (list int)) "sempe exposes no key bits" [] (observable Scheme.Sempe)

let test_prime_and_probe_unit () =
  (* Attacker primes one set; a victim touching a conflicting line evicts
     the attacker's line in a 1-way cache. *)
  let cache =
    Sempe_mem.Cache.create
      { Sempe_mem.Cache.size_bytes = 1024; line_bytes = 64; ways = 1 }
  in
  let nsets = Sempe_mem.Cache.num_sets cache in
  let prime = [ 0; 64 ] in
  let victim () =
    ignore (Sempe_mem.Cache.access cache ~addr:(nsets * 64) ~write:false)
  in
  let evicted = Attacker.prime_and_probe cache ~prime ~victim in
  Alcotest.(check bool) "conflicting set evicted" true evicted.(0);
  Alcotest.(check bool) "other set intact" false evicted.(1)

let tests =
  [
    Alcotest.test_case "baseline leaks" `Quick test_baseline_leaks;
    Alcotest.test_case "protected schemes silent" `Quick test_protected_schemes_silent;
    Alcotest.test_case "annotated-on-legacy leaks" `Quick test_annotated_on_legacy_still_leaks;
    Alcotest.test_case "timing attack correlation" `Quick test_timing_attack;
    Alcotest.test_case "key bit recovery" `Quick test_bit_recovery;
    Alcotest.test_case "prime and probe" `Quick test_prime_and_probe_unit;
  ]

(* ---- co-resident prime+probe (threat model section III) ---- *)

let test_coresident_prime_probe () =
  let trace scheme key =
    let built = Harness.build scheme Rsa.program in
    let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
    Sempe_security.Coresident.prime_probe_trace
      ~support:(Scheme.support scheme)
      ~prog:built.Sempe_workloads.Harness.prog
      ~init_mem:(Harness.init_mem_of built ~globals ~arrays)
      ()
  in
  let d scheme =
    Sempe_security.Coresident.distance (trace scheme 0x0000) (trace scheme 0xffff)
  in
  let d_base = d Scheme.Baseline in
  let d_sempe = d Scheme.Sempe in
  Alcotest.(check bool)
    (Printf.sprintf "baseline eviction patterns differ (distance %d)" d_base)
    true (d_base > 0);
  Alcotest.(check int) "sempe eviction patterns identical" 0 d_sempe

let tests = tests @ [ Alcotest.test_case "coresident prime+probe" `Quick test_coresident_prime_probe ]

(* ---- the manual alternative: a hand-written constant-time ladder ---- *)

let ladder_view ~key =
  let built = Harness.build Scheme.Baseline Rsa.ct_program in
  let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
  let recorder = Observable.recorder () in
  let outcome =
    Harness.run ~globals ~arrays
      ~sink:(Sink.of_probe (Observable.probe recorder))
      built
  in
  let expected = Rsa.reference ~key ~base:1234 ~modulus:99991 in
  Alcotest.(check int)
    (Printf.sprintf "ladder key=%d result" key)
    expected
    (Harness.return_value outcome);
  Observable.view recorder outcome

let test_ct_ladder_silent_on_plain_hw () =
  let views = List.map (fun key -> ladder_view ~key) keys in
  Alcotest.(check (list string)) "ladder has no leaky channels" []
    (List.map Leakage.channel_name (Leakage.leaky_channels views))

let test_sempe_vs_manual_ct_cost () =
  (* The paper's pitch: SeMPE gives the protection without rewriting the
     routine. Both protected versions must be within a small factor of
     each other, and both slower than the leaky original. *)
  let cycles scheme prog ~key =
    let built = Harness.build scheme prog in
    let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
    Sempe_core.Run.cycles (Harness.run ~globals ~arrays built)
  in
  let naive = cycles Scheme.Baseline Rsa.program ~key:0xa5a5 in
  let sempe = cycles Scheme.Sempe Rsa.program ~key:0xa5a5 in
  let ladder = cycles Scheme.Baseline Rsa.ct_program ~key:0xa5a5 in
  let ratio = float_of_int ladder /. float_of_int naive in
  Alcotest.(check bool)
    (Printf.sprintf "sane cost ordering (naive=%d ladder=%d sempe=%d)" naive
       ladder sempe)
    true
    (sempe > naive && ratio > 0.5 && ratio < 4.0)

let tests =
  tests
  @ [
      Alcotest.test_case "ct ladder silent on plain hw" `Quick
        test_ct_ladder_silent_on_plain_hw;
      Alcotest.test_case "sempe vs manual ct cost" `Quick test_sempe_vs_manual_ct_cost;
    ]

(* ---- leakage attribution: witness streams and the diff engine ---- *)

module Witness = Sempe_security.Witness
module Attribution = Sempe_security.Attribution
module Gen = Sempe_fuzz.Gen

let zero_view : Observable.view =
  {
    Observable.cycles = 0;
    instructions = 0;
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

let test_extract_collision_caught () =
  (* Regression for the old single-int channel comparison: two runs whose
     committed-PC streams differ but whose primary digest collides. The
     scalar [extract] projection cannot tell them apart; [fingerprint]
     (what [compare_views] now uses) must. *)
  let v1 =
    { zero_view with Observable.pc_digest = 42; pc_digest2 = 1; instructions = 10 }
  in
  let v2 =
    { zero_view with Observable.pc_digest = 42; pc_digest2 = 2; instructions = 10 }
  in
  Alcotest.(check int) "single-int projection collides"
    (Leakage.extract Leakage.Trace v1)
    (Leakage.extract Leakage.Trace v2);
  Alcotest.(check bool) "fingerprint distinguishes" true
    (Leakage.fingerprint Leakage.Trace v1 <> Leakage.fingerprint Leakage.Trace v2);
  let f =
    List.find
      (fun f -> f.Leakage.channel = Leakage.Trace)
      (Leakage.compare_views [ v1; v2 ])
  in
  Alcotest.(check bool) "trace channel reported leaky" true (Leakage.leaks f)

let test_channel_name_round_trip () =
  List.iter
    (fun ch ->
      Alcotest.(check bool)
        (Leakage.channel_name ch ^ " round-trips")
        true
        (Leakage.channel_of_name (Leakage.channel_name ch) = Some ch))
    Leakage.channels;
  Alcotest.(check bool) "unknown channel name rejected" true
    (Leakage.channel_of_name "bogus" = None)

let rsa_witness scheme ~key =
  let built = Harness.build scheme Rsa.program in
  let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
  let recorder = Observable.recorder () in
  let w = Witness.create () in
  let outcome =
    Harness.run ~globals ~arrays
      ~sink:
        (Sink.tee
           (Sink.of_probe (Observable.probe recorder))
           (Sink.of_probe (Witness.probe w)))
      built
  in
  (Observable.view recorder outcome, w)

let test_first_divergence_indices () =
  let wkeys = [ 0x0000; 0xffff ] in
  let pairs scheme = List.map (fun key -> rsa_witness scheme ~key) wkeys in
  let base = pairs Scheme.Baseline in
  let findings =
    Leakage.compare_views ~witnesses:(List.map snd base) (List.map fst base)
  in
  List.iter
    (fun f ->
      if Leakage.leaks f then
        match f.Leakage.first_divergence with
        | None ->
          Alcotest.failf "%s leaks but carries no first-divergence index"
            (Leakage.channel_name f.Leakage.channel)
        | Some i ->
          Alcotest.(check bool)
            (Leakage.channel_name f.Leakage.channel ^ " index sane")
            true (i >= 0))
    findings;
  (* the finding's index is exactly the witness-level stream diff *)
  let w0 = snd (List.nth base 0) and w1 = snd (List.nth base 1) in
  let trace_f =
    List.find (fun f -> f.Leakage.channel = Leakage.Trace) findings
  in
  Alcotest.(check (option int)) "trace index matches Witness.first_divergence"
    (Witness.first_divergence w0 w1 Witness.Trace)
    trace_f.Leakage.first_divergence;
  (* under SeMPE every stream agrees, so no channel carries an index *)
  let se = pairs Scheme.Sempe in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Leakage.channel_name f.Leakage.channel ^ " silent under sempe")
        true
        ((not (Leakage.leaks f)) && f.Leakage.first_divergence = None))
    (Leakage.compare_views ~witnesses:(List.map snd se) (List.map fst se))

let test_attribution_needs_two_witnesses () =
  Alcotest.check_raises "one witness rejected"
    (Invalid_argument
       "Attribution.attribute: need at least 2 witnesses to compare")
    (fun () -> ignore (Attribution.attribute [ Witness.create () ]))

(* The leakage-stack invariant, property-tested over random programs: on
   every channel the per-structure and per-PC buckets each sum exactly to
   the divergent-event count, and a clean SeMPE attribution stays clean. *)
let test_attribution_stack_sums () =
  let sum l = List.fold_left (fun a (_, n) -> a + n) 0 l in
  let check_sums name (attr : Attribution.t) =
    List.iter
      (fun (cr : Attribution.channel_report) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s structure stack sums to divergent" name
             (Witness.stream_name cr.Attribution.cr_stream))
          cr.Attribution.cr_divergent
          (sum cr.Attribution.cr_stack);
        Alcotest.(check int)
          (Printf.sprintf "%s: %s pc stack sums to divergent" name
             (Witness.stream_name cr.Attribution.cr_stream))
          cr.Attribution.cr_divergent
          (sum cr.Attribution.cr_pcs))
      attr.Attribution.by_channel;
    Alcotest.(check int) (name ^ ": total is the channel sum")
      (List.fold_left
         (fun a (cr : Attribution.channel_report) ->
           a + cr.Attribution.cr_divergent)
         0 attr.Attribution.by_channel)
      (Attribution.total_divergent attr)
  in
  for seed = 1 to 6 do
    let case = Gen.generate seed in
    List.iter
      (fun scheme ->
        let built = Harness.build scheme case.Gen.prog in
        let witnesses =
          List.map
            (fun secrets ->
              let w = Witness.create () in
              ignore
                (Harness.run ~mem_words:16384 ~globals:secrets
                   ~arrays:[ (Gen.array_name, case.Gen.fill) ]
                   ~sink:(Sink.of_probe (Witness.probe w))
                   built);
              w)
            case.Gen.secrets
        in
        let attr = Attribution.attribute witnesses in
        check_sums (Printf.sprintf "seed %d %s" seed (Scheme.name scheme)) attr;
        if scheme = Scheme.Sempe then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d sempe attribution clean" seed)
            true (Attribution.is_clean attr))
      [ Scheme.Baseline; Scheme.Sempe ]
  done

let tests =
  tests
  @ [
      Alcotest.test_case "extract collision caught by fingerprint" `Quick
        test_extract_collision_caught;
      Alcotest.test_case "channel names round-trip" `Quick
        test_channel_name_round_trip;
      Alcotest.test_case "findings carry first-divergence indices" `Quick
        test_first_divergence_indices;
      Alcotest.test_case "attribution needs two witnesses" `Quick
        test_attribution_needs_two_witnesses;
      Alcotest.test_case "leakage stack sums by construction" `Quick
        test_attribution_stack_sums;
    ]
