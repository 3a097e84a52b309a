(* The synthetic djpeg: correctness across schemes, output equality,
   secret-independence of the SeMPE observables with different images, and
   the Figure 8 shape properties. *)

module Djpeg = Sempe_workloads.Djpeg
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Observable = Sempe_security.Observable
module Sink = Sempe_obs.Sink
module Leakage = Sempe_security.Leakage

let run ?(seed = 7) ?(blocks = 2) scheme fmt =
  let built = Harness.build scheme (Djpeg.program fmt) in
  let globals, arrays = Djpeg.inputs fmt ~seed ~blocks in
  let recorder = Observable.recorder () in
  let outcome =
    Harness.run ~globals ~arrays
      ~sink:(Sink.of_probe (Observable.probe recorder))
      built
  in
  (built, outcome, Observable.view recorder outcome)

let test_sempe_matches_baseline () =
  List.iter
    (fun fmt ->
      let _, base, _ = run Scheme.Baseline fmt in
      let built_s, sempe, _ = run Scheme.Sempe fmt in
      Alcotest.(check int)
        (Djpeg.format_name fmt ^ " checksum")
        (Harness.return_value base)
        (Harness.return_value sempe);
      (* full output image must match, not just the checksum *)
      let _, base_b, _ = run Scheme.Baseline fmt in
      ignore base_b;
      let built_b, base2, _ = run Scheme.Baseline fmt in
      Alcotest.(check (array int))
        (Djpeg.format_name fmt ^ " image bytes")
        (Harness.read_array built_b base2 "img_out")
        (Harness.read_array built_s sempe "img_out"))
    Djpeg.all_formats

let test_observables_image_independent () =
  (* Two different secret images: SeMPE observables identical, baseline
     observables differ. *)
  List.iter
    (fun fmt ->
      let view scheme seed =
        let _, _, view = run ~seed scheme fmt in
        view
      in
      let sempe_views = [ view Scheme.Sempe 7; view Scheme.Sempe 1234 ] in
      Alcotest.(check (list string))
        (Djpeg.format_name fmt ^ " sempe silent")
        []
        (List.map Leakage.channel_name (Leakage.leaky_channels sempe_views));
      let base_views = [ view Scheme.Baseline 7; view Scheme.Baseline 1234 ] in
      Alcotest.(check bool)
        (Djpeg.format_name fmt ^ " baseline leaks")
        true
        (Leakage.leaky_channels base_views <> []))
    Djpeg.all_formats

let test_fig8_shape () =
  let cells =
    Sempe_experiments.Djpeg_exp.collect
      ~sizes:[ { Djpeg.label = "s"; blocks = 4 }; { Djpeg.label = "l"; blocks = 8 } ]
      ()
  in
  let overhead fmt label =
    match
      List.find_opt
        (fun (c : Sempe_experiments.Djpeg_exp.cell) ->
          c.format = fmt && c.size.Djpeg.label = label)
        cells
    with
    | Some c -> Sempe_experiments.Djpeg_exp.overhead c
    | None -> Alcotest.fail "missing cell"
  in
  (* ordering PPM > GIF > BMP, every overhead positive and well under 2x *)
  List.iter
    (fun label ->
      let p = overhead Djpeg.Ppm label in
      let g = overhead Djpeg.Gif label in
      let b = overhead Djpeg.Bmp label in
      Alcotest.(check bool) "PPM > GIF" true (p > g);
      Alcotest.(check bool) "GIF > BMP" true (g > b);
      Alcotest.(check bool) "all positive" true (b > 0.05);
      Alcotest.(check bool) "well under 2x" true (p < 1.2))
    [ "s"; "l" ];
  (* size independence: overheads move little with block count *)
  List.iter
    (fun fmt ->
      let s = overhead fmt "s" and l = overhead fmt "l" in
      Alcotest.(check bool)
        (Djpeg.format_name fmt ^ " size-independent")
        true
        (Float.abs (s -. l) < 0.12))
    Djpeg.all_formats

let tests =
  [
    Alcotest.test_case "sempe matches baseline" `Quick test_sempe_matches_baseline;
    Alcotest.test_case "observables image independent" `Quick
      test_observables_image_independent;
    Alcotest.test_case "figure 8 shape" `Slow test_fig8_shape;
  ]
