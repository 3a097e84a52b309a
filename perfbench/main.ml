(* The repository's benchmark: one workload per invocation, measured
   from outside through the libraries' public functions.

     main.exe --workload sim-grid|sampled-djpeg|serve-fleet --seed N
              [--seconds S] [--trace 0|1] [--smoke]

   --trace 0 runs the closed-loop timed window and reports the
   end-to-end metrics; --seconds sizes the window by work, as the ops a
   reference host completes in that time (see [Measure.ops_for]).
   --trace 1 is a separate run that records spans
   around the calls into each layer, writes them as a Perfetto trace
   under perfbench/_out/, and reports the per-layer metrics (a layer the
   workload bypasses reads 0). Each metric is printed as a line
   "name value unit"; the last line of stdout is the JSON summary
   {"correct", "attempted", "failed", "metrics"}. Output checks that
   fail count as failed ops. Run it through perfbench/run.py, which
   builds it first. *)

module Json = Sempe_obs.Json

let per_layer =
  [
    ("core.exec_ns_per_instr", "ns/instr");
    ("core.uop_sink_ns_per_instr", "ns/instr");
    ("pipeline.warm_ns_per_instr", "ns/instr");
    ("pipeline.timing_ns_per_instr", "ns/instr");
    ("ocaml.minor_words_per_instr", "words/instr");
    ("pipeline.instructions", "count");
    ("pipeline.cycles", "count");
    ("workloads.run_fixed_ms", "ms");
    ("lang.build_ms", "ms");
    ("sampling.fastforward_ms", "ms");
    ("sampling.measure_ms", "ms");
    ("sampling.checkpoint_save_ms", "ms");
    ("sampling.checkpoint_restore_ms", "ms");
    ("sampling.checkpoint_kb", "KiB");
    ("sampling.intervals_measured", "count");
    ("sampling.predicted_cost_ratio", "ratio");
    ("sampling.measured_cost_ratio", "ratio");
    ("serve.hit_p50_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.decode_us", "us");
    ("serve.cache_key_ms", "ms");
    ("serve.encode_us", "us");
    ("serve.ping_ms", "ms");
    ("serve.direct_hit_ms", "ms");
    ("router.hop_ms", "ms");
    ("router.ping_ms", "ms");
    ("router.route_key_us", "us");
    ("serve.connect_ms", "ms");
    ("serve.perform_ms", "ms");
    ("serve.miss_ms", "ms");
    ("serve.miss_overhead_ms", "ms");
    ("serve.hits", "count");
    ("serve.misses", "count");
    ("serve.executed", "count");
    ("serve.evictions", "count");
    ("router.forwarded", "count");
    ("router.retried", "count");
    ("serve.hit_ratio", "ratio");
    ("process.peak_rss_mb", "MiB");
    ("reconcile.sim_remainder_pct", "%");
    ("reconcile.sample_remainder_pct", "%");
    ("reconcile.hit_remainder_pct", "%");
    ("reconcile.route_remainder_pct", "%");
    ("trace.overhead_pct", "%");
  ]

(* How far the independently timed parts may fall short of (or exceed)
   their parent span, as a share of the parent. A traced run whose
   remainder leaves this band counts a failed op; a smoke run times too
   little for the band to mean anything and only reports it. *)
let tolerance_pct =
  [
    ("reconcile.sim_remainder_pct", 15.);
    ("reconcile.sample_remainder_pct", 25.);
    ("reconcile.hit_remainder_pct", 25.);
    ("reconcile.route_remainder_pct", 25.);
  ]

let workloads = [ "sim-grid"; "sampled-djpeg"; "serve-fleet" ]

let run workload seed seconds trace smoke =
  let ops ~rate ~round = if smoke then round else Measure.ops_for ~seconds ~rate ~round in
  let setup_reps = if smoke then 1 else if workload = "serve-fleet" then 5 else 15 in
  let attempted, failed, metrics =
    if trace then begin
      Measure.recording := true;
      let attempted, failed, measured =
        match workload with
        | "sim-grid" -> Sim_grid.traced ~seed ~smoke
        | "sampled-djpeg" -> Sampled_djpeg.traced ~seed ~smoke
        | _ -> Serve_fleet.traced ~seed ~smoke
      in
      let measured = Measure.metric "process.peak_rss_mb" "MiB" (Measure.peak_rss_mb ()) :: measured in
      let path = Filename.concat (Measure.out_dir ()) (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Measure.write_perfetto ~path ~title:("perfbench " ^ workload);
      Printf.eprintf "[perfbench] %d spans written to %s\n%!" (List.length !Measure.spans) path;
      let value name =
        match List.find_opt (fun m -> m.Measure.name = name) measured with
        | Some m -> m.Measure.value
        | None -> 0.
      in
      let outside =
        List.filter
          (fun (name, tol) ->
            let v = value name in
            if Float.abs v > tol then
              Printf.eprintf "[perfbench] %s = %.1f%% is outside +-%.0f%%\n%!" name v tol;
            Float.abs v > tol && not smoke)
          tolerance_pct
      in
      ( attempted,
        failed + List.length outside,
        List.map (fun (name, unit_) -> Measure.metric name unit_ (value name)) per_layer )
    end
    else
      match workload with
      | "sim-grid" ->
        Sim_grid.timed ~seed ~setup_reps ~ops:(ops ~rate:Sim_grid.rate ~round:Sim_grid.round)
      | "sampled-djpeg" ->
        Sampled_djpeg.timed ~seed ~setup_reps
          ~ops:(ops ~rate:Sampled_djpeg.rate ~round:Sampled_djpeg.round)
      | _ -> Serve_fleet.timed ~seed ~setup_reps ~ops:(ops ~rate:Serve_fleet.rate ~round:Serve_fleet.round)
  in
  List.iter
    (fun m -> Printf.printf "%-34s %16.6f %s\n" m.Measure.name m.Measure.value m.Measure.unit_)
    metrics;
  let summary =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.Measure.name,
                   Json.Obj [ ("value", Json.Float m.Measure.value); ("unit", Json.Str m.Measure.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Json.to_string summary)

open Cmdliner

let cmd =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun w -> (w, w)) workloads))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed =
    Arg.(required & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")
  in
  let seconds =
    Arg.(
      value & opt float 20.
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Size of the timed window: the ops a reference host completes in $(docv) seconds.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"Traced run reporting the per-layer metrics.")
  in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"A few ops only, for a quick check.") in
  Cmd.v
    (Cmd.info "perfbench" ~doc:"End-to-end and per-layer benchmark of the simulator and its fleet.")
    Term.(const run $ workload $ seed $ seconds $ trace $ smoke)

let () = exit (Cmd.eval cmd)
