(* The real-world workload: decode a secret image to PPM/GIF/BMP under
   every scheme; the image contents must not be inferable from the
   decoder's behavior.

   Run with: dune exec examples/djpeg_demo.exe *)

module Djpeg = Sempe_workloads.Djpeg
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Observable = Sempe_security.Observable
module Sink = Sempe_obs.Sink
module Leakage = Sempe_security.Leakage
module Tablefmt = Sempe_util.Tablefmt

let decode scheme fmt ~seed =
  let built = Harness.build scheme (Djpeg.program fmt) in
  let globals, arrays = Djpeg.inputs fmt ~seed ~blocks:8 in
  let recorder = Observable.recorder () in
  let outcome =
    Harness.run ~globals ~arrays
      ~sink:(Sink.of_probe (Observable.probe recorder))
      built
  in
  (outcome, Observable.view recorder outcome)

let () =
  print_endline "=== djpeg: secret image -> PPM / GIF / BMP ===\n";
  let rows =
    List.map
      (fun fmt ->
        let base, _ = decode Scheme.Baseline fmt ~seed:42 in
        let sempe, _ = decode Scheme.Sempe fmt ~seed:42 in
        let ovh =
          (float_of_int (Run.cycles sempe) /. float_of_int (Run.cycles base)) -. 1.0
        in
        [
          Djpeg.format_name fmt;
          string_of_int (Run.cycles base);
          string_of_int (Run.cycles sempe);
          Tablefmt.percent ovh;
        ])
      Djpeg.all_formats
  in
  Tablefmt.print
    ~header:[ "format"; "baseline cycles"; "SeMPE cycles"; "overhead" ]
    rows;
  print_endline "\ncan the decoder's behavior distinguish two images?";
  List.iter
    (fun scheme ->
      let _, v1 = decode scheme Djpeg.Ppm ~seed:42 in
      let _, v2 = decode scheme Djpeg.Ppm ~seed:9001 in
      let leaky = Leakage.leaky_channels [ v1; v2 ] in
      Printf.printf "  %-10s %s\n" (Scheme.name scheme)
        (if leaky = [] then "no - all channels identical"
         else
           "yes - leaks via "
           ^ String.concat ", " (List.map Leakage.channel_name leaky)))
    [ Scheme.Baseline; Scheme.Sempe ]
