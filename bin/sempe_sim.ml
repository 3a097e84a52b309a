(* sempe-sim: command-line front end to the SeMPE simulator.

   Subcommands: config, microbench, djpeg, rsa, sample, leakage, report,
   profile, trace, asm-run, disasm, fuzz, serve, router, client,
   loadgen. *)

open Cmdliner
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Harness = Sempe_workloads.Harness
module Kernels = Sempe_workloads.Kernels
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json
module Report = Sempe_obs.Report
module Sink = Sempe_obs.Sink
module Sampling = Sempe_sampling.Sampling
module Pool = Sempe_util.Pool
module Api = Sempe_serve.Api
module Listener = Sempe_serve.Listener
module Server = Sempe_serve.Server
module Router = Sempe_serve.Router
module Client = Sempe_serve.Client
module Loadgen = Sempe_serve.Loadgen

let scheme_conv =
  let parse s =
    match Scheme.of_string s with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown scheme %S (expected one of: %s)" s
              (String.concat ", " (List.map Scheme.name Scheme.all))))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Scheme.name s))

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Scheme.Sempe
    & info [ "scheme"; "s" ] ~docv:"SCHEME"
        ~doc:"Protection scheme: baseline, sempe, sempe-on-legacy, cte, raccoon or mto.")

(* Parallel fan-out of the experiment grids (report / leakage). The
   rendered output is byte-identical at any -j. *)
let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the simulation sweeps. 0 (the default) \
           means one per core; 1 forces the sequential path.")

let set_jobs j =
  Sempe_experiments.Batch.set_jobs
    (if j <= 0 then Sempe_experiments.Batch.default_jobs () else j)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit a machine-readable JSON document on stdout.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Write sweep progress and per-job timing telemetry to stderr \
           (stdout output is unaffected).")

let print_sweep_telemetry () =
  match Sempe_experiments.Batch.telemetry () with
  | None -> ()
  | Some t ->
    Printf.eprintf
      "[sweep] %d jobs, %.2fs wall, %.1f jobs/s; per-job mean %.3fs, p50 \
       %.3fs, p95 %.3fs, max %.3fs\n\
       %!"
      t.Sempe_experiments.Batch.jobs_run t.Sempe_experiments.Batch.wall_s
      t.Sempe_experiments.Batch.throughput t.Sempe_experiments.Batch.mean_s
      t.Sempe_experiments.Batch.p50_s t.Sempe_experiments.Batch.p95_s
      t.Sempe_experiments.Batch.max_s

let with_progress progress f =
  Sempe_experiments.Batch.set_progress progress;
  let r = f () in
  if progress then print_sweep_telemetry ();
  r

let print_json j = print_endline (Json.to_string j)

(* An output file that cannot be created is a runtime failure, exit 1,
   like an address that cannot be bound. *)
let writable f path =
  try f path
  with Sys_error msg ->
    Printf.eprintf "cannot write %s\n" msg;
    exit 1

(* ---- the workload subcommands: one Api request, one Api.run, one
   renderer ---- *)

(* The range check the daemon applies to the same request: a value out
   of range is a usage error, exit 124 like a malformed flag. *)
let check request =
  match Api.check request with
  | Ok () -> ()
  | Error msg ->
    prerr_endline msg;
    exit 124

let print_outcome json outcome =
  if json then print_json (Api.to_json outcome)
  else print_string (Api.to_text outcome)

let run_request json request =
  check request;
  print_outcome json (Api.run request)

(* ---- sampled-simulation options shared by the workload commands ---- *)

let strict_oob_arg =
  Arg.(
    value & flag
    & info [ "strict-oob" ]
        ~doc:
          "Trap on out-of-bounds data addresses and indirect-jump targets \
           (jr/ret) instead of wrapping them into memory / into the \
           program (the forgiving default).")

let sample_flag =
  Arg.(
    value & flag
    & info [ "sample" ]
        ~doc:
          "Estimate cycles by sampled simulation (checkpointed intervals \
           under functional warming) instead of simulating every \
           instruction in detail.")

let coverage_arg =
  Arg.(
    value & opt float Sampling.default_config.Sampling.coverage
    & info [ "coverage" ] ~docv:"FRAC"
        ~doc:"Fraction of intervals measured in detail, in (0, 1].")

let interval_arg =
  Arg.(
    value & opt int Sampling.default_config.Sampling.interval
    & info [ "interval" ] ~docv:"N" ~doc:"Instructions per sampling interval.")

let warmup_arg =
  Arg.(
    value & opt int Sampling.default_config.Sampling.warmup
    & info [ "warmup" ] ~docv:"N"
        ~doc:"Detailed warmup instructions before each measured interval.")

(* ---- config ---- *)

let config_cmd =
  let run () =
    Tablefmt.print ~header:[ "parameter"; "value" ]
      (List.map (fun (k, v) -> [ k; v ]) (Config.rows Config.default))
  in
  Cmd.v (Cmd.info "config" ~doc:"Print the Table II machine model.")
    Term.(const run $ const ())

(* ---- microbench / djpeg / rsa ---- *)

(* A full or, with --sample, sampled simulation of the workload the
   command's own flags describe. *)
let simulation_cmd name ~doc workload =
  let request scheme workload strict sample interval coverage warmup =
    if sample then
      Api.Sample
        { scheme; workload; strict_oob = strict;
          params = { Api.interval; coverage; warmup } }
    else Api.Simulate { scheme; workload; strict_oob = strict }
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run_request $ json_arg
      $ (const request $ scheme_arg $ workload $ strict_oob_arg $ sample_flag
        $ interval_arg $ coverage_arg $ warmup_arg))

let microbench_cmd =
  let kernel =
    Arg.(
      value & opt string Kernels.fibonacci.Kernels.name
      & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc:"Workload kernel.")
  in
  let width =
    Arg.(value & opt int 4 & info [ "width"; "w" ] ~docv:"W" ~doc:"Nesting width W.")
  in
  let iters =
    Arg.(value & opt int 3 & info [ "iters"; "i" ] ~docv:"N" ~doc:"Iterations.")
  in
  let leaf =
    Arg.(value & opt int 1 & info [ "leaf" ] ~docv:"N" ~doc:"True leaf (1..W+1).")
  in
  let workload kernel width iters leaf =
    Api.Microbench { kernel; width; iters; leaf }
  in
  simulation_cmd "microbench" ~doc:"Run the Figure 7 nested-chain microbenchmark."
    Term.(const workload $ kernel $ width $ iters $ leaf)

let djpeg_cmd =
  let fmt =
    Arg.(value & opt string "PPM" & info [ "format"; "f" ] ~docv:"FMT" ~doc:"PPM, GIF or BMP.")
  in
  let blocks =
    Arg.(value & opt int 8 & info [ "blocks"; "b" ] ~docv:"N" ~doc:"8x8 blocks to decode.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Secret image seed.")
  in
  let workload format blocks seed =
    Api.Djpeg { format = String.uppercase_ascii format; blocks; seed }
  in
  simulation_cmd "djpeg" ~doc:"Run the synthetic djpeg decoder."
    Term.(const workload $ fmt $ blocks $ seed)

let rsa_cmd =
  let key =
    Arg.(value & opt int 0x1234 & info [ "key" ] ~docv:"KEY" ~doc:"Secret exponent.")
  in
  simulation_cmd "rsa" ~doc:"Run RSA modular exponentiation (Figure 1)."
    Term.(const (fun key -> Api.Rsa { key }) $ key)

(* ---- sample / profile / trace / disasm / client: one workload selector ---- *)

(* [rsa], [djpeg] (always PPM), or a microbenchmark kernel name; an
   unknown name exits 1. *)
let select_workload which ~width ~iters ~leaf ~blocks ~seed ~key =
  match String.lowercase_ascii which with
  | "rsa" -> Api.Rsa { key }
  | "djpeg" -> Api.Djpeg { format = "PPM"; blocks; seed }
  | other -> (
    match Kernels.by_name other with
    | Some kernel ->
      Api.Microbench { kernel = kernel.Kernels.name; width; iters; leaf }
    | None ->
      Printf.eprintf "unknown workload %S (rsa, djpeg, or a kernel: %s)\n"
        other
        (String.concat ", " (List.map (fun k -> k.Kernels.name) Kernels.all));
      exit 1)

let workload_arg =
  Arg.(
    value & pos 0 string "rsa"
    & info [] ~docv:"WORKLOAD" ~doc:"rsa, djpeg, or a microbenchmark kernel name.")

let width_arg =
  Arg.(value & opt int 4 & info [ "width"; "w" ] ~docv:"W" ~doc:"Nesting width W (kernels).")

let iters_arg =
  Arg.(value & opt int 3 & info [ "iters"; "i" ] ~docv:"N" ~doc:"Iterations (kernels).")

let leaf_arg =
  Arg.(value & opt int 1 & info [ "leaf" ] ~docv:"N" ~doc:"True leaf (kernels).")

let blocks_arg =
  Arg.(value & opt int 8 & info [ "blocks"; "b" ] ~docv:"N" ~doc:"8x8 blocks (djpeg).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Image seed (djpeg).")

let key_arg =
  Arg.(value & opt int 0x1234 & info [ "key" ] ~docv:"KEY" ~doc:"Secret exponent (rsa).")

(* The positional WORKLOAD and its parameter flags, selected. *)
let workload_term =
  let select which width iters leaf blocks seed key =
    select_workload which ~width ~iters ~leaf ~blocks ~seed ~key
  in
  Term.(
    const select $ workload_arg $ width_arg $ iters_arg $ leaf_arg $ blocks_arg
    $ seed_arg $ key_arg)

(* ---- sample ---- *)

let sample_cmd =
  let run scheme workload interval coverage warmup jobs strict compare json =
    let request =
      Api.Sample
        { scheme; workload; strict_oob = strict;
          params = { Api.interval; coverage; warmup } }
    in
    check request;
    let timed f =
      let t0 = Pool.now_s () in
      let r = f () in
      (r, Pool.now_s () -. t0)
    in
    (* --compare-full: also run the ordinary detailed simulation so the
       estimate's error can be read off directly (this is the acceptance
       check for the sampler). The reference runs first: the first
       simulation in a process pays the GC-heap growth for both, and the
       reference is the baseline the sampled time is judged against. *)
    let reference =
      if compare then
        Some (timed (fun () -> Api.full_cycles scheme workload ~strict_oob:strict))
      else None
    in
    let workers = if jobs <= 0 then None else Some jobs in
    let outcome, sampled_s = timed (fun () -> Api.run ?workers request) in
    (* wall clock goes to stderr: stdout stays byte-identical at any -j *)
    Printf.eprintf "[sample] %.2fs wall%s\n%!" sampled_s
      (match reference with
       | None -> ""
       | Some (_, full_s) ->
         Printf.sprintf ", full run %.2fs, speedup %s" full_s
           (Tablefmt.times (if sampled_s > 0. then full_s /. sampled_s else 0.)));
    print_outcome json
      (match (outcome, reference) with
       | Api.Sampled s, Some (full, _) ->
         Api.Sampled { s with full_cycles = Some full }
       | outcome, _ -> outcome)
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare-full" ]
          ~doc:
            "Also run the full detailed simulation and report the \
             estimate's relative error (and, on stderr, the wall-clock \
             speedup).")
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Estimate a workload's cycle count by sampled simulation: one \
          functional pass warms caches and predictors and saves \
          checkpoints; a subset of intervals is then measured under the \
          detailed timing model (in parallel with -j) and extrapolated \
          with a confidence band. Performance only: leakage/security \
          analyses need full runs.")
    Term.(
      const run $ scheme_arg $ workload_term $ interval_arg $ coverage_arg
      $ warmup_arg $ jobs_arg $ strict_oob_arg $ compare_arg $ json_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run scheme workload top json =
    run_request json (Api.Profile { scheme; workload; top })
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top"; "n" ] ~docv:"N" ~doc:"Rows per profile table.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload with the per-PC profiler attached: CPI stall \
          stack, top mispredicting branches, top DL1-missing loads, and \
          per-sJMP drain costs.")
    Term.(const run $ scheme_arg $ workload_term $ top $ json_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run scheme workload out jsonl =
    check (Api.Simulate { scheme; workload; strict_oob = false });
    let built, globals, arrays = Api.setup scheme workload in
    let oc = writable open_out out in
    let sink = if jsonl then Sink.jsonl oc else Sink.perfetto oc in
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          sink.Sink.close ();
          close_out oc)
        (fun () -> Harness.run ~globals ~arrays ~sink built)
    in
    let r = outcome.Run.timing in
    Printf.printf "trace: %s, scheme=%s\n" (Api.describe workload)
      (Scheme.name scheme);
    Printf.printf "wrote %s (%d instructions, %d cycles)\n" out
      r.Timing.instructions r.Timing.cycles;
    if not jsonl then
      print_endline
        "open it at https://ui.perfetto.dev (or chrome://tracing): one \
         track per pipeline stage, one slice per instruction"
  in
  let out =
    Arg.(
      value & opt string "sempe-trace.json"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:
            "Emit flat JSON-lines event records instead of the Chrome \
             trace-event format.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with the per-instruction pipeline tracer attached \
          and write a Perfetto-loadable trace (fetch, dispatch, issue, \
          complete, commit spans).")
    Term.(const run $ scheme_arg $ workload_term $ out $ jsonl)

let leakage_cmd =
  let module Leakage = Sempe_security.Leakage in
  let module Attribution = Sempe_security.Attribution in
  let run jobs json progress attribute channel_names trace_out =
    set_jobs jobs;
    if (not attribute) && (channel_names <> [] || trace_out <> None) then begin
      Printf.eprintf "--channel and --trace-out require --attribute\n";
      exit 124
    end;
    if not attribute then
      print_outcome json (with_progress progress (fun () -> Api.run Api.Leakage))
    else begin
      (* --channel names go through the Leakage channel vocabulary (the
         same names `fuzz --oracle trace` failures report) and map onto
         the witness stream carrying that channel. *)
      let channels =
        match channel_names with
        | [] -> None
        | names ->
          Some
            (List.map
               (fun name ->
                 match Leakage.channel_of_name name with
                 | Some c -> Leakage.stream_of_channel c
                 | None ->
                   Printf.eprintf "unknown channel %S (expected one of: %s)\n"
                     name
                     (String.concat ", "
                        (List.map Leakage.channel_name Leakage.channels));
                   exit 124)
               names)
      in
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then writable (fun d -> Sys.mkdir d 0o755) dir)
        trace_out;
      let results =
        with_progress progress (fun () ->
            Sempe_experiments.Security_exp.measure_attribution ())
      in
      (match trace_out with
       | None -> ()
       | Some dir ->
         List.iter
           (fun (r : Sempe_experiments.Security_exp.attribution_result) ->
             let file =
               Filename.concat dir (Scheme.name r.a_scheme ^ ".json")
             in
             let oc = writable open_out file in
             Fun.protect
               ~finally:(fun () -> close_out oc)
               (fun () ->
                 Attribution.write_perfetto
                   ~secrets:
                     (List.map (fun k -> Printf.sprintf "key 0x%04x" k)
                        r.a_keys)
                   oc r.a_attribution r.a_witnesses);
             Printf.eprintf "wrote %s\n%!" file)
           results);
      if json then
        print_json
          (Sempe_experiments.Security_exp.attribution_to_json ?channels
             results)
      else
        print_string
          (Sempe_experiments.Security_exp.render_attribution ?channels
             results)
    end
  in
  let attribute =
    Arg.(
      value & flag
      & info [ "attribute" ]
          ~doc:
            "Record full witness streams per key and localize every \
             divergence: first diverging event, static PC, source \
             statement and hardware structure, plus the per-structure \
             leakage stack.")
  in
  let channels =
    Arg.(
      value & opt_all string []
      & info [ "channel" ] ~docv:"NAME"
          ~doc:
            "With $(b,--attribute): restrict the report to this channel \
             (repeatable): timing, pc-trace, mem-address, icache, dcache, \
             l2, branch-predictor, instruction-count.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--attribute): write one Perfetto trace per scheme \
             to $(docv)/<scheme>.json — one lane per key, an instant \
             marker at every divergent region.")
  in
  Cmd.v
    (Cmd.info "leakage"
       ~doc:
         "Leakage matrix: which attacker channels distinguish RSA keys \
          under each scheme. With $(b,--attribute), a full leakage \
          attribution: where the runs diverge, per channel, PC and \
          hardware structure.")
    Term.(
      const run $ jobs_arg $ json_arg $ progress_arg $ attribute $ channels
      $ trace_out)

(* ---- report ---- *)

module Exp = Sempe_experiments

(* What [report] shows of one experiment: its JSON document, its CSV dump
   where it has one, and its text sections (title, body) in print order.
   [~quick] selects the CI sizes; the ablations, the security matrix and
   the sampling grid have one size. *)
type shown = {
  doc : Json.t;
  csv : string option;
  sections : (string * string) list;
}

let table2 ~quick:_ =
  let rows = Config.rows Config.default in
  { doc = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) rows);
    csv = None;
    sections =
      [ ("Table II - baseline microarchitecture model",
         Tablefmt.render ~header:[ "parameter"; "value" ]
           (List.map (fun (k, v) -> [ k; v ]) rows)) ] }

let table1 ~quick =
  let rows = Exp.Table1.measure ~iters:(if quick then 1 else 2) () in
  { doc = Exp.Table1.to_json rows; csv = None;
    sections = [ ("Table I", Exp.Table1.render rows) ] }

let djpeg ~quick =
  let sizes =
    if quick then
      [ { Sempe_workloads.Djpeg.label = "256k"; blocks = 4 };
        { Sempe_workloads.Djpeg.label = "512k"; blocks = 8 } ]
    else Sempe_workloads.Djpeg.sizes
  in
  let cells = Exp.Djpeg_exp.collect ~sizes () in
  { doc = Exp.Djpeg_exp.to_json cells; csv = Some (Exp.Djpeg_exp.csv cells);
    sections =
      [ ("Figure 8", Exp.Djpeg_exp.render_fig8 cells);
        ("Figure 9", Exp.Djpeg_exp.render_fig9 cells) ] }

let fig10 ~quick =
  let series =
    if quick then Exp.Fig10.sweep ~widths:[ 1; 2; 4 ] ~iters:1 ()
    else Exp.Fig10.sweep ()
  in
  { doc = Exp.Fig10.to_json series; csv = Some (Exp.Fig10.csv series);
    sections =
      [ ("Figure 10a", Exp.Fig10.render_a series);
        ("Figure 10a (cross-kernel average)", Exp.Fig10.render_chart series);
        ("Figure 10b", Exp.Fig10.render_b series) ] }

let security ~quick:_ =
  let results = Exp.Security_exp.measure () in
  { doc = Exp.Security_exp.to_json results; csv = None;
    sections =
      [ ("Security matrix (sections III / IV-G)",
         Exp.Security_exp.render results) ] }

let ablation ~quick:_ =
  let m = Exp.Ablation.measure () in
  { doc = Exp.Ablation.to_json m; csv = None;
    sections = [ ("Ablations (sections IV-E / IV-F)", Exp.Ablation.render m) ] }

let sampling ~quick:_ =
  let cells = Exp.Sampling_exp.collect () in
  (* wall clock goes to stderr: stdout stays byte-identical at any -j *)
  prerr_endline (Exp.Sampling_exp.render_wall cells);
  { doc = Exp.Sampling_exp.to_json cells;
    csv = Some (Exp.Sampling_exp.csv cells);
    sections = [ ("Sampled simulation", Exp.Sampling_exp.render cells) ] }

(* The paper's evaluation, in the order [report all] prints it; each name
   is the experiment's member of [report all --json]. *)
let paper =
  [ ("table2", table2); ("table1", table1); ("djpeg", djpeg);
    ("fig10", fig10); ("security", security); ("ablation", ablation) ]

(* [report NAME]: the experiment, and the one section to print when it
   renders more than the name asks for. *)
let experiments =
  [ ("table1", (table1, None)); ("fig8", (djpeg, Some "Figure 8"));
    ("fig9", (djpeg, Some "Figure 9")); ("fig10", (fig10, None));
    ("ablation", (ablation, None)); ("sampling", (sampling, None)) ]

let report_cmd =
  let run name csv json quick jobs progress =
    set_jobs jobs;
    with_progress progress (fun () ->
        match (name, List.assoc_opt name experiments) with
        | "all", _ when json ->
          print_json
            (Json.Obj (List.map (fun (m, e) -> (m, (e ~quick).doc)) paper))
        | "all", _ ->
          List.iter
            (fun (_, e) ->
              List.iter
                (fun (title, body) ->
                  Printf.printf "==== %s ====\n%s\n\n%!" title body)
                (e ~quick).sections)
            paper
        | _, Some (e, only) -> (
          let shown = e ~quick in
          match (json, csv, shown.csv) with
          | true, _, _ -> print_json shown.doc
          | false, true, Some text -> print_string text
          | _ ->
            List.iter
              (fun (title, body) ->
                if only = None || only = Some title then print_endline body)
              shown.sections)
        | _, None ->
          Printf.eprintf "unknown experiment %S (%s)\n" name
            (String.concat ", " ("all" :: List.map fst experiments));
          exit 1)
  in
  let exp_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV instead of tables.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "CI sizes: Table I at one iteration, djpeg at 4 and 8 blocks, \
             Figure 10 at W in {1, 2, 4} and one iteration.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate one paper table/figure (table1, fig8, fig9, fig10, \
          ablation), the sampled-simulation validation grid (sampling), or \
          the whole evaluation (all: Table II, Table I, Figures 8-10, the \
          security matrix and the ablations).")
    Term.(
      const run $ exp_arg $ csv_arg $ json_arg $ quick_arg $ jobs_arg
      $ progress_arg)

(* ---- asm-run: execute an assembly file ---- *)

let asm_run_cmd =
  (* A program that does not assemble, or that the machine cannot run,
     is the input's fault: name the file, the line where known and the
     cause, and exit 1. *)
  let fail path fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 1)
      fmt
  in
  let run scheme path json =
    let prog =
      match In_channel.with_open_bin path In_channel.input_all with
      | src -> (
        try Sempe_isa.Asm.parse src with
        | Sempe_isa.Asm.Error { line; message } ->
          fail (Printf.sprintf "%s:%d" path line) "%s" message
        | Invalid_argument msg -> fail path "%s" msg)
      | exception Sys_error msg -> fail path "cannot read: %s" msg
    in
    let support = Scheme.support scheme in
    let timing = Timing.create () in
    let config =
      { Sempe_core.Exec.default_config with
        Sempe_core.Exec.support; mem_words = 1 lsl 16 }
    in
    let res =
      try Sempe_core.Exec.run ~config ~sink:(Timing.feed timing) prog with
      | Sempe_core.Jbtable.Overflow ->
        fail path
          "jbTable overflow: secure branches nest deeper than its %d entries"
          config.Sempe_core.Exec.jbtable_entries
      | Sempe_mem.Spm.Overflow ->
        fail path "SPM overflow: the open secure branches' snapshots do not fit"
      | Sempe_core.Exec.Budget_exceeded n ->
        fail path "instruction budget exceeded after %d instructions" n
    in
    if json then
      print_json
        (Json.Obj
           [
             ("workload", Json.Str "asm-run");
             ("path", Json.Str path);
             ("scheme", Json.Str (Scheme.name scheme));
             ("instructions", Json.Int res.Sempe_core.Exec.dyn_instrs);
             ("rv", Json.Int res.Sempe_core.Exec.regs.(Sempe_isa.Reg.rv));
             ("max_nesting", Json.Int res.Sempe_core.Exec.max_nesting);
             ("report", Report.to_json (Timing.report timing));
           ])
    else begin
      Printf.printf "%s: %d instructions, rv = %d, max nesting %d\n\n" path
        res.Sempe_core.Exec.dyn_instrs
        res.Sempe_core.Exec.regs.(Sempe_isa.Reg.rv)
        res.Sempe_core.Exec.max_nesting;
      print_endline (Report.render (Timing.report timing))
    end
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  Cmd.v
    (Cmd.info "asm-run" ~doc:"Assemble and simulate a .s file (see lib/isa/asm.mli for syntax).")
    Term.(const run $ scheme_arg $ path $ json_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let module Fuzz = Sempe_fuzz.Fuzz in
  let module Oracle = Sempe_fuzz.Oracle in
  let run seed count budget oracle_names jobs corpus no_corpus no_minimize
      fault_name max_failures json =
    let oracles =
      match oracle_names with
      | [] -> Oracle.all
      | names ->
        List.map
          (fun name ->
            match Oracle.find name with
            | Some o -> o
            | None ->
              Printf.eprintf "unknown oracle %S (expected one of: %s)\n" name
                (String.concat ", " Oracle.names);
              exit 124)
          names
    in
    let fault =
      match Sempe_core.Exec.fault_of_string fault_name with
      | Some f -> f
      | None ->
        Printf.eprintf
          "unknown fault %S (none, skip-restore, skip-nt-restore)\n"
          fault_name;
        exit 124
    in
    (* -j is an upper bound: the outcome is worker-count-independent by
       construction, so oversubscribing domains past the host's cores
       (catastrophic for allocation-heavy jobs under OCaml 5's
       stop-the-world minor GC) would burn time without changing a byte
       of the output. *)
    let workers =
      if jobs <= 0 then Pool.default_workers ()
      else min jobs (Pool.default_workers ())
    in
    let config =
      {
        Fuzz.default_config with
        Fuzz.seed;
        count;
        budget_s = budget;
        oracles;
        workers;
        corpus_dir = (if no_corpus then None else Some corpus);
        minimize = not no_minimize;
        max_failures;
        ctx = { Oracle.default_ctx with Oracle.fault };
      }
    in
    let outcome = Fuzz.run config in
    (* wall-clock goes to stderr: stdout stays byte-identical at any -j *)
    Printf.eprintf
      "[fuzz] %d cases (%d generated, %d mutants, %d replayed), %d \
       execution shapes, %d failure(s), %.1fs wall, %d workers\n%!"
      outcome.Fuzz.executed outcome.Fuzz.generated outcome.Fuzz.mutants
      outcome.Fuzz.replayed outcome.Fuzz.features
      (List.length outcome.Fuzz.failures)
      outcome.Fuzz.wall_s workers;
    if json then print_json (Fuzz.to_json outcome)
    else print_string (Fuzz.render config outcome);
    if outcome.Fuzz.failures <> [] then exit 1
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:"Cases to execute (fresh plus feedback mutants).")
  in
  let budget =
    Arg.(
      value & opt (some float) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:
            "Stop after this much wall time (checked between rounds; a \
             budget-limited run is not reproducible — use $(b,--count) \
             alone for that).")
  in
  let oracle_names =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Oracle to check (repeatable): state, trace, timing, sampling, \
             checkpoint. Default: all of them.")
  in
  let corpus =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Reproducer directory: entries replay before any new case, and \
             minimized failures are persisted here.")
  in
  let no_corpus =
    Arg.(
      value & flag
      & info [ "no-corpus" ] ~doc:"Neither replay nor persist reproducers.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Report failures as generated, without delta debugging.")
  in
  let fault =
    Arg.(
      value & opt string "none"
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:
            "Inject a protocol bug (skip-restore, skip-nt-restore) to \
             self-test the oracles; the run should then fail.")
  in
  let max_failures =
    Arg.(
      value & opt int 5
      & info [ "max-failures" ] ~docv:"N"
          ~doc:"Stop after this many distinct failures.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs with secret branches are \
          checked against the reference interpreter, across schemes, and \
          against the timing/sampling/checkpoint invariants. Exits \
          non-zero if any oracle is violated; failures are minimized and \
          persisted as corpus reproducers.")
    Term.(
      const run $ seed $ count $ budget $ oracle_names $ jobs_arg $ corpus
      $ no_corpus $ no_minimize $ fault $ max_failures $ json_arg)


(* ---- disasm ---- *)

let disasm_cmd =
  let run scheme which =
    let workload =
      select_workload which ~width:1 ~iters:1 ~leaf:1 ~blocks:1 ~seed:0 ~key:0
    in
    Format.printf "%a@." Sempe_isa.Program.pp (Api.program scheme workload).Harness.prog
  in
  let which =
    Arg.(value & pos 0 string "rsa" & info [] ~docv:"WORKLOAD"
           ~doc:"rsa, djpeg, or a kernel name.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Compile a workload under a scheme and print the assembly.")
    Term.(const run $ scheme_arg $ which)

(* ---- serve / client / loadgen: the simulation service ---- *)

let connect_arg =
  Arg.(
    value & opt string "sempe.sock"
    & info [ "connect"; "c" ] ~docv:"ADDR"
        ~doc:
          "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
           unix socket path.")

let parse_addr s =
  match Listener.addr_of_string s with
  | Ok addr -> addr
  | Error msg ->
    Printf.eprintf "bad address %S: %s\n" s msg;
    exit 124

(* [start ()] binds [listen]; an address that cannot be bound exits 1,
   like an address that cannot be connected to. *)
let listening listen start =
  try start ()
  with Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot listen on %s: %s\n" listen (Unix.error_message e);
    exit 1

let serve_cmd =
  let run listen workers result_entries timeout_s max_connections store_dir
      verbose =
    let addr = parse_addr listen in
    (* Leakage requests sweep the scheme grid on the process-wide Batch
       pool; keep it sequential so concurrent requests do not
       oversubscribe domains (responses are jobs-independent anyway). *)
    Sempe_experiments.Batch.set_jobs 1;
    let config =
      {
        Server.default_config with
        Server.workers = max 1 workers;
        result_entries = max 1 result_entries;
        timeout_s;
        max_connections = max 1 max_connections;
        store_dir;
        verbose;
      }
    in
    let t = listening listen (fun () -> Server.start ~config addr) in
    Printf.eprintf "sempe-sim serve: listening on %s (%d workers)\n%!"
      (Listener.addr_to_string (Server.addr t))
      config.Server.workers;
    let on_signal _ = Server.request_stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Server.wait t;
    Printf.eprintf "sempe-sim serve: stopped\n%!"
  in
  let listen =
    Arg.(
      value & opt string "sempe.sock"
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
             unix socket path.")
  in
  let workers =
    Arg.(
      value & opt int Server.default_config.Server.workers
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Simulation worker domains (requests queue past this).")
  in
  let result_entries =
    Arg.(
      value & opt int Server.default_config.Server.result_entries
      & info [ "result-entries" ] ~docv:"N" ~doc:"Response cache capacity.")
  in
  let timeout =
    Arg.(
      value & opt float Server.default_config.Server.timeout_s
      & info [ "timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-request reply deadline (the job keeps running and feeds \
             the cache; only the reply gives up). 0 disables.")
  in
  let max_connections =
    Arg.(
      value & opt int Server.default_config.Server.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent connections; excess clients get a busy error.")
  in
  let store_dir =
    Arg.(
      value & opt (some string) None
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent cache store: the response cache is reloaded from \
             $(docv) on start and flushed back on graceful shutdown, so a \
             restarted daemon serves warm from its first request.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log one line per served request to stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation daemon: a length-prefixed JSON protocol over a \
          unix or TCP socket, with a content-addressed response cache \
          (cost-aware eviction, optional on-disk persistence) and \
          in-flight request coalescing. The daemon trusts its clients; \
          see the Serving section of the README.")
    Term.(
      const run $ listen $ workers $ result_entries $ timeout
      $ max_connections $ store_dir $ verbose)

let client_cmd =
  let run connect op which width iters leaf blocks seed key scheme strict
      interval coverage warmup top fuzz_seed count =
    let workload () =
      select_workload which ~width ~iters ~leaf ~blocks ~seed ~key
    in
    let request =
      match op with
      | "ping" | "stats" | "shutdown" -> None
      | "simulate" ->
        Some
          (Api.Simulate { scheme; workload = workload (); strict_oob = strict })
      | "sample" ->
        Some
          (Api.Sample
             {
               scheme;
               workload = workload ();
               strict_oob = strict;
               params = { Api.interval; coverage; warmup };
             })
      | "profile" ->
        Some (Api.Profile { scheme; workload = workload (); top })
      | "leakage" -> Some Api.Leakage
      | "fuzz-smoke" -> Some (Api.Fuzz_smoke { seed = fuzz_seed; count })
      | other ->
        Printf.eprintf
          "unknown op %S (ping, stats, shutdown, simulate, sample, profile, \
           leakage, fuzz-smoke)\n"
          other;
        exit 124
    in
    let conn =
      try Client.connect (parse_addr connect)
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to %s: %s\n" connect
          (Unix.error_message e);
        exit 1
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match request with
          | Some req -> Client.call conn req
          | None -> (
            match op with
            | "ping" -> Result.map (fun () -> Json.Str "pong") (Client.ping conn)
            | "stats" -> Client.stats conn
            | _ -> Result.map (fun () -> Json.Bool true) (Client.shutdown conn)))
    in
    match result with
    | Ok json -> print_json json
    | Error { Client.code; message } ->
      Printf.eprintf "error [%s]: %s\n" code message;
      exit 1
  in
  let op =
    Arg.(
      value & pos 0 string "ping"
      & info [] ~docv:"OP"
          ~doc:
            "ping, stats, shutdown, simulate, sample, profile, leakage or \
             fuzz-smoke.")
  in
  let which =
    Arg.(
      value & opt string "rsa"
      & info [ "workload" ] ~docv:"WORKLOAD"
          ~doc:"rsa, djpeg, or a microbenchmark kernel name.")
  in
  let fuzz_seed =
    Arg.(
      value & opt int 1
      & info [ "fuzz-seed" ] ~docv:"SEED" ~doc:"Master seed (fuzz-smoke).")
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Cases to execute (fuzz-smoke).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows per profile table (profile).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running daemon and print the result \
          document — the same bytes the matching batch subcommand's \
          $(b,--json) mode prints.")
    Term.(
      const run $ connect_arg $ op $ which $ width_arg $ iters_arg $ leaf_arg
      $ blocks_arg $ seed_arg $ key_arg $ scheme_arg $ strict_oob_arg
      $ interval_arg $ coverage_arg $ warmup_arg $ top $ fuzz_seed $ count)

let loadgen_cmd =
  let run connect clients requests mix_names rate json =
    let mix =
      List.concat_map
        (fun name ->
          match String.lowercase_ascii name with
          | "simulate" ->
            [
              Api.Simulate
                {
                  scheme = Scheme.Sempe;
                  workload =
                    Api.Microbench
                      { kernel = "fibonacci"; width = 4; iters = 3; leaf = 1 };
                  strict_oob = false;
                };
              Api.Simulate
                {
                  scheme = Scheme.Baseline;
                  workload =
                    Api.Microbench
                      { kernel = "ones"; width = 4; iters = 3; leaf = 2 };
                  strict_oob = false;
                };
              Api.Simulate
                {
                  scheme = Scheme.Sempe;
                  workload = Api.Djpeg { format = "PPM"; blocks = 4; seed = 42 };
                  strict_oob = false;
                };
              Api.Simulate
                {
                  scheme = Scheme.Cte;
                  workload = Api.Rsa { key = 0x1234 };
                  strict_oob = false;
                };
            ]
          | "sample" ->
            [
              Api.Sample
                {
                  scheme = Scheme.Sempe;
                  workload = Api.Rsa { key = 0x1234 };
                  strict_oob = false;
                  params =
                    { Api.interval = 2000; coverage = 0.25; warmup = 500 };
                };
              Api.Sample
                {
                  scheme = Scheme.Sempe;
                  workload = Api.Djpeg { format = "PPM"; blocks = 8; seed = 7 };
                  strict_oob = false;
                  params =
                    { Api.interval = 2000; coverage = 0.25; warmup = 500 };
                };
            ]
          | "profile" ->
            [
              Api.Profile
                {
                  scheme = Scheme.Sempe;
                  workload = Api.Rsa { key = 0x1234 };
                  top = 10;
                };
            ]
          | "leakage" -> [ Api.Leakage ]
          | "fuzz" -> [ Api.Fuzz_smoke { seed = 1; count = 25 } ]
          | other ->
            Printf.eprintf
              "unknown mix element %S (simulate, sample, profile, leakage, \
               fuzz)\n"
              other;
            exit 124)
        mix_names
    in
    let outcome =
      Loadgen.run (parse_addr connect)
        {
          Loadgen.clients;
          requests_per_client = requests;
          mix;
          rate_hz = rate;
        }
    in
    if json then print_json (Loadgen.to_json outcome)
    else print_endline (Loadgen.render outcome);
    if outcome.Loadgen.dropped > 0 then exit 1
  in
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let requests =
    Arg.(
      value & opt int 12
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let mix =
    Arg.(
      value
      & opt (list string) [ "simulate"; "sample" ]
      & info [ "mix" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated request classes to cycle through: simulate, \
             sample, profile, leakage, fuzz.")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"HZ"
          ~doc:
            "Open-loop arrival rate per client (latency measured from the \
             scheduled send time). Default: closed loop.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with N concurrent clients replaying a \
          request mix; report latency percentiles, throughput, drop count \
          and the daemon-side cache hit rate. Exits non-zero if any \
          request was dropped.")
    Term.(const run $ connect_arg $ clients $ requests $ mix $ rate $ json_arg)

(* ---- router: the sharded serving fleet ---- *)

let router_cmd =
  let run listen shards replicas retries backoff_s health_s verbose =
    if shards = [] then begin
      Printf.eprintf "router: at least one --shard ADDR is required\n";
      exit 124
    end;
    let addr = parse_addr listen in
    let shard_addrs = List.map parse_addr shards in
    let config =
      {
        Router.default_config with
        Router.replicas = max 1 replicas;
        retries = max 1 retries;
        backoff_s = Float.max 0. backoff_s;
        health_period_s = Float.max 0.05 health_s;
        verbose;
      }
    in
    let t = listening listen (fun () -> Router.start ~config ~shards:shard_addrs addr) in
    Printf.eprintf "sempe-sim router: listening on %s, %d shard(s)\n%!"
      (Listener.addr_to_string (Router.addr t))
      (List.length shard_addrs);
    let on_signal _ = Router.request_stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Router.wait t;
    Printf.eprintf "sempe-sim router: stopped\n%!"
  in
  let listen =
    Arg.(
      value & opt string "sempe-router.sock"
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
             unix socket path.")
  in
  let shards =
    Arg.(
      value & opt_all string []
      & info [ "shard" ] ~docv:"ADDR"
          ~doc:"A shard daemon's address; repeat once per shard.")
  in
  let replicas =
    Arg.(
      value & opt int Router.default_config.Router.replicas
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let retries =
    Arg.(
      value & opt int Router.default_config.Router.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Forwarding attempts per shard before failing over.")
  in
  let backoff =
    Arg.(
      value & opt float Router.default_config.Router.backoff_s
      & info [ "backoff-s" ] ~docv:"SECONDS"
          ~doc:"Delay before the first retry; doubles per attempt.")
  in
  let health =
    Arg.(
      value & opt float Router.default_config.Router.health_period_s
      & info [ "health-period-s" ] ~docv:"SECONDS"
          ~doc:"How often dead shards are pinged back into rotation.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log routing decisions and shard state.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Front a fleet of $(b,serve) shards behind one address: requests \
          are consistent-hashed onto shards (so repeats always hit the same \
          shard's cache) and relayed byte-for-byte, with retry, failover \
          and health checking. The $(b,shutdown) op drains the whole fleet.")
    Term.(
      const run $ listen $ shards $ replicas $ retries $ backoff $ health
      $ verbose)

let () =
  let info =
    Cmd.info "sempe-sim" ~version:"1.0"
      ~doc:"Cycle-level simulator for the SeMPE secure multi-path execution architecture."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            config_cmd; microbench_cmd; djpeg_cmd; rsa_cmd; sample_cmd;
            leakage_cmd; report_cmd; profile_cmd; trace_cmd; disasm_cmd;
            asm_run_cmd; fuzz_cmd; serve_cmd; router_cmd; client_cmd;
            loadgen_cmd;
          ]))
