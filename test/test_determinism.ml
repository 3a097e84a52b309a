(* The parallel sweep engine and the observability layer must both be
   invisible in the results: a sweep fanned out to 4 worker domains
   renders byte-identical tables to the sequential run (every job owns
   its machines and the engine returns results in job order), and a run
   with a sink attached reports the same cycles as one without. *)

module Batch = Sempe_experiments.Batch
module Fig10 = Sempe_experiments.Fig10
module Table1 = Sempe_experiments.Table1
module Scheme = Sempe_core.Scheme
module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa
module Sink = Sempe_obs.Sink
module Profile = Sempe_obs.Profile
module Warm = Sempe_pipeline.Warm

let with_jobs n f =
  Batch.set_jobs n;
  Fun.protect ~finally:(fun () -> Batch.set_jobs 1) f

let test_fig10_j1_vs_j4 () =
  let sweep () = Fig10.sweep ~widths:[ 1; 2 ] ~iters:1 () in
  let seq = with_jobs 1 sweep in
  let par = with_jobs 4 sweep in
  Alcotest.(check string) "render_a byte-identical"
    (Fig10.render_a seq) (Fig10.render_a par);
  Alcotest.(check string) "render_b byte-identical"
    (Fig10.render_b seq) (Fig10.render_b par);
  Alcotest.(check string) "csv byte-identical" (Fig10.csv seq) (Fig10.csv par)

let test_table1_j1_vs_j4 () =
  let measure () = Table1.measure ~width:2 ~iters:1 () in
  let seq = with_jobs 1 measure in
  let par = with_jobs 4 measure in
  Alcotest.(check string) "render byte-identical"
    (Table1.render seq) (Table1.render par)

let test_map_product_grouping () =
  (* The grid helper regroups the flat job results per outer element. *)
  let got =
    Batch.map_product ~j:3 (fun o i -> (o * 10) + i) [ 1; 2; 3 ] [ 4; 5 ]
  in
  Alcotest.(check (list (pair int (list int)))) "grouped in order"
    [ (1, [ 14; 15 ]); (2, [ 24; 25 ]); (3, [ 34; 35 ]) ]
    got

let test_fig10_cross_kernel_average_missing_width () =
  (* Regression: a series missing a sampled width used to make the
     cross-kernel average behind Fig10.render_chart raise Not_found. *)
  let p width baseline sempe =
    {
      Fig10.width;
      baseline_cycles = baseline;
      sempe_cycles = sempe;
      cte_cycles = 4 * baseline;
      ideal_cycles = baseline;
    }
  in
  let series =
    [
      { Fig10.kernel = "full"; points = [ p 1 100 200; p 2 100 300; p 4 100 500 ] };
      { Fig10.kernel = "shallow"; points = [ p 1 100 400; p 2 100 500 ] };
    ]
  in
  let f (pt : Fig10.point) =
    float_of_int pt.Fig10.sempe_cycles /. float_of_int pt.Fig10.baseline_cycles
  in
  let avg = Fig10.cross_kernel_average ~f series in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "missing widths averaged over present series only"
    [ (1.0, 3.0); (2.0, 4.0); (4.0, 5.0) ]
    avg;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "no series at all" []
    (Fig10.cross_kernel_average ~f [])

let test_sink_invisible () =
  (* Instrumentation is passive: no sink, the null sink and a live
     profiling sink must all produce the identical timing report and
     leave the identical cache and predictor contents. *)
  let report sink =
    let built = Harness.build Scheme.Sempe Rsa.program in
    let globals, arrays = Rsa.inputs ~key:0xa5a5 ~base:1234 ~modulus:99991 in
    let o = Harness.run ~globals ~arrays ?sink built in
    ( o.Sempe_core.Run.timing,
      Warm.cache_signature o.Sempe_core.Run.warm,
      Warm.predictor_signature o.Sempe_core.Run.warm )
  in
  let plain = report None in
  Alcotest.(check bool) "null sink identical" true (plain = report (Some Sink.null));
  let profiled =
    report (Some (Sink.of_probe (Profile.probe (Profile.create ()))))
  in
  Alcotest.(check bool) "profiling sink identical" true (plain = profiled);
  let witnessed =
    report
      (Some
         (Sink.of_probe
            (Sempe_security.Witness.probe (Sempe_security.Witness.create ()))))
  in
  Alcotest.(check bool) "witness sink identical" true (plain = witnessed)

let test_attribution_j1_vs_j4 () =
  (* The attribution sweep fans one job per scheme over the pool; its
     rendered report and JSON must be byte-identical at any -j. *)
  let module Security_exp = Sempe_experiments.Security_exp in
  let measure () = Security_exp.measure_attribution ~keys:[ 0x0000; 0xffff ] () in
  let seq = with_jobs 1 measure in
  let par = with_jobs 4 measure in
  Alcotest.(check string) "render byte-identical"
    (Security_exp.render_attribution seq)
    (Security_exp.render_attribution par);
  Alcotest.(check string) "json byte-identical"
    (Sempe_obs.Json.to_string (Security_exp.attribution_to_json seq))
    (Sempe_obs.Json.to_string (Security_exp.attribution_to_json par))

let tests =
  [
    Alcotest.test_case "fig10 sweep -j1 = -j4" `Quick test_fig10_j1_vs_j4;
    Alcotest.test_case "sink attachment invisible in report" `Quick
      test_sink_invisible;
    Alcotest.test_case "table1 measure -j1 = -j4" `Quick test_table1_j1_vs_j4;
    Alcotest.test_case "map_product grouping" `Quick test_map_product_grouping;
    Alcotest.test_case "fig10 average skips missing widths" `Quick
      test_fig10_cross_kernel_average_missing_width;
    Alcotest.test_case "attribution sweep -j1 = -j4" `Quick
      test_attribution_j1_vs_j4;
  ]
