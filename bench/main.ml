(* Simulation-rate records and the CI perf gate. The paper's tables are
   rendered by `sempe-sim report all`.

   `dune exec bench/main.exe` times the detailed model, the sampled
   estimator and a witness-recording run on two workloads (Fibonacci at
   W=4, 300 iterations; PPM djpeg, 32 blocks: the sizes
   bench/baseline.json was captured at) and prints one rate table. It
   also runs the sampler's smoke: 10% coverage must land inside its own
   error band, and 100% coverage must equal the full run exactly.
   `--bench-json FILE` writes the records as machine-readable JSON;
   `--runs N` (default 3) takes the median of N timed repeats of each
   measurement. `gate --baseline FILE [--current FILE] [--tolerance PCT]
   [--min-work N]` compares two such record sets and exits non-zero on a
   rate regression or on a record measured over fewer than N
   instructions: the CI perf gate. *)

module Tablefmt = Sempe_util.Tablefmt
module Harness = Sempe_workloads.Harness
module Sampling = Sempe_sampling.Sampling
module Pool = Sempe_util.Pool
module Json = Sempe_obs.Json

let arg_after name =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let bench_json = arg_after "--bench-json"

let runs =
  match arg_after "--runs" with
  | None -> 3
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "[bench] --runs expects a positive integer, got %S\n%!" s;
      exit 2)

let min_work =
  match arg_after "--min-work" with
  | None -> 100_000
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ ->
      Printf.eprintf
        "[gate] --min-work expects a non-negative instruction count, got %S\n%!"
        s;
      exit 2)

(* ---- simulation rate: full vs sampled ---- *)

type perf_record = {
  p_workload : string;
  p_mode : string;  (* "full" | "sampled" | "witness" *)
  p_instructions : int;
  p_cycles : int;
  p_wall_s : float;
  p_speedup : float;  (* vs the full run of the same workload; 1.0 for full *)
}

let minstr_per_s r =
  if r.p_wall_s > 0. then float_of_int r.p_instructions /. r.p_wall_s /. 1e6
  else 0.

let perf_record_json r =
  Json.Obj
    [
      ("workload", Json.Str r.p_workload);
      ("mode", Json.Str r.p_mode);
      ("instructions", Json.Int r.p_instructions);
      ("cycles", Json.Int r.p_cycles);
      ("wall_s", Json.Float r.p_wall_s);
      ("minstr_per_s", Json.Float (minstr_per_s r));
      ("speedup", Json.Float r.p_speedup);
    ]

(* The workloads run millions of dynamic instructions: rates measured
   over less are startup cost, and the sampled estimator can only show
   its wall-clock win once the run is long enough to amortize its
   pool/checkpoint fixed costs, which is also the only regime anyone
   should sample in. *)
let measure_perf () =
  let sample_cfg coverage =
    { Sampling.default_config with Sampling.coverage }
  in
  (* Simulation is deterministic, so repeats only re-measure the wall
     clock; the median of [--runs] repeats (default 3) keeps the reported
     rates (and the perf gate that consumes them) stable against
     scheduler noise and cold starts — unlike best-of-N it is also not
     biased optimistic on a machine with bursty interference. *)
  (* [prepare] runs before each repeat, outside the measured window.
     Every record finishes a major cycle first, so GC work left pending
     by the previous measurement (the witness buffers' large allocations,
     the sampler's worker domains, whose minor collections rendezvous
     with the main domain) is not charged to the next one. *)
  let timed ?(prepare = fun () -> ()) f =
    let times = Array.make runs 0.0 in
    let result = ref None in
    for i = 0 to runs - 1 do
      prepare ();
      let t0 = Pool.now_s () in
      let r = f () in
      times.(i) <- Pool.now_s () -. t0;
      result := Some r
    done;
    Array.sort compare times;
    let median =
      if runs land 1 = 1 then times.(runs / 2)
      else (times.((runs / 2) - 1) +. times.(runs / 2)) /. 2.0
    in
    match !result with Some r -> (r, median) | None -> assert false
  in
  let workloads =
    let fib =
      let spec =
        { Sempe_workloads.Microbench.kernel = Sempe_workloads.Kernels.fibonacci;
          width = 4; iters = 300 }
      in
      ( "microbench-fibonacci",
        Harness.build Sempe_core.Scheme.Sempe
          (Sempe_workloads.Microbench.program ~ct:false spec),
        Sempe_workloads.Microbench.secrets_for_leaf ~width:4 ~leaf:1,
        [] )
    in
    let djpeg =
      let fmt = Sempe_workloads.Djpeg.Ppm in
      let blocks = 32 in
      let globals, arrays = Sempe_workloads.Djpeg.inputs fmt ~seed:42 ~blocks in
      ( Printf.sprintf "djpeg-ppm-%db" blocks,
        Harness.build Sempe_core.Scheme.Sempe
          (Sempe_workloads.Djpeg.program fmt),
        globals,
        arrays )
    in
    [ fib; djpeg ]
  in
  let records = ref [] in
  let smoke_failures = ref [] in
  List.iter
    (fun (name, built, globals, arrays) ->
      let outcome, full_s =
        timed ~prepare:Gc.full_major (fun () ->
            Harness.run ~globals ~arrays built)
      in
      let report = outcome.Sempe_core.Run.timing in
      let full_cycles = report.Sempe_pipeline.Timing.cycles in
      records :=
        {
          p_workload = name;
          p_mode = "full";
          p_instructions = report.Sempe_pipeline.Timing.instructions;
          p_cycles = full_cycles;
          p_wall_s = full_s;
          p_speedup = 1.0;
        }
        :: !records;
      let est, sampled_s =
        timed ~prepare:Gc.full_major (fun () ->
            Harness.sample ~globals ~arrays ~config:(sample_cfg 0.1) ~workers:2
              built)
      in
      records :=
        {
          p_workload = name;
          p_mode = "sampled";
          p_instructions = est.Sampling.instructions;
          p_cycles = est.Sampling.cycles_estimate;
          p_wall_s = sampled_s;
          p_speedup = (if sampled_s > 0. then full_s /. sampled_s else 0.);
        }
        :: !records;
      (* Leakage-attribution overhead: the same detailed run with a
         witness recording every attacker-visible event. Not part of the
         committed baseline (the gate only compares records the baseline
         names), but the record makes the witness tax visible in every
         bench run and still has to clear the gate's min-work floor. *)
      let _, witness_s =
        timed ~prepare:Gc.full_major (fun () ->
            let w = Sempe_security.Witness.create () in
            Harness.run ~globals ~arrays
              ~sink:(Sempe_obs.Sink.of_probe (Sempe_security.Witness.probe w))
              built)
      in
      records :=
        {
          p_workload = name;
          p_mode = "witness";
          p_instructions = report.Sempe_pipeline.Timing.instructions;
          p_cycles = full_cycles;
          p_wall_s = witness_s;
          p_speedup = (if witness_s > 0. then full_s /. witness_s else 0.);
        }
        :: !records;
      if not (Sampling.contains est ~cycles:full_cycles) then
        smoke_failures :=
          Printf.sprintf
            "%s: full cycles %d outside the sampled band [%d, %d]" name
            full_cycles est.Sampling.cycles_low est.Sampling.cycles_high
          :: !smoke_failures;
      let exact =
        Harness.sample ~globals ~arrays ~config:(sample_cfg 1.0) built
      in
      if exact.Sampling.cycles_estimate <> full_cycles then
        smoke_failures :=
          Printf.sprintf
            "%s: 100%% coverage gave %d cycles, full run gave %d" name
            exact.Sampling.cycles_estimate full_cycles
          :: !smoke_failures)
    workloads;
  (List.rev !records, List.rev !smoke_failures)

let perf () =
  let records, smoke_failures = measure_perf () in
  Printf.printf "==== %s ====\n%s\n\n%!"
    "Simulation rate (full vs sampled, 10% coverage)"
    (Tablefmt.render
       ~header:
         [ "workload"; "mode"; "instrs"; "cycles"; "wall s"; "Minstr/s";
           "speedup" ]
       (List.map
          (fun r ->
            [
              r.p_workload; r.p_mode; string_of_int r.p_instructions;
              string_of_int r.p_cycles;
              Printf.sprintf "%.3f" r.p_wall_s;
              Printf.sprintf "%.2f" (minstr_per_s r);
              Tablefmt.times r.p_speedup;
            ])
          records));
  (match bench_json with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     output_string oc
       (Json.to_string (Json.List (List.map perf_record_json records)));
     output_char oc '\n';
     close_out oc;
     Printf.eprintf "[bench] wrote %d perf records to %s\n%!"
       (List.length records) file);
  match smoke_failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "[bench] sampling smoke FAILED: %s\n%!") fs;
    exit 1

(* ---- perf-regression gate ---- *)

(* `gate --baseline FILE [--current FILE] [--tolerance PCT]`: compare
   perf records (as written by --bench-json) and fail when any
   simulation rate regresses past the tolerance. Without --current, a
   fresh measurement is taken — ci.sh passes the record file its own
   run just wrote, so the gate costs nothing extra there. *)

type gate_rec = {
  g_workload : string;
  g_mode : string;
  g_rate : float;
  g_instructions : int;
}

let gate_key r = r.g_workload ^ "/" ^ r.g_mode

let gate_rec_of_json file j =
  let field k =
    match Json.member k j with
    | Some v -> v
    | None ->
      Printf.eprintf "[gate] %s: perf record is missing %S\n%!" file k;
      exit 2
  in
  let str k = match field k with Json.Str s -> s | _ ->
    Printf.eprintf "[gate] %s: perf record field %S is not a string\n%!" file k;
    exit 2
  in
  let num k =
    match field k with
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ ->
      Printf.eprintf "[gate] %s: perf record field %S is not a number\n%!" file k;
      exit 2
  in
  {
    g_workload = str "workload";
    g_mode = str "mode";
    g_rate = num "minstr_per_s";
    g_instructions = int_of_float (num "instructions");
  }

let gate_recs_of_file file =
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error msg -> Printf.eprintf "[gate] %s\n%!" msg; exit 2
  in
  match Json.of_string text with
  | Json.List items -> List.map (gate_rec_of_json file) items
  | _ | (exception Json.Parse_error _) ->
    Printf.eprintf "[gate] %s: expected a JSON list of perf records\n%!" file;
    exit 2

let run_gate () =
  let baseline_file =
    match arg_after "--baseline" with
    | Some f -> f
    | None ->
      Printf.eprintf
        "usage: bench/main.exe gate --baseline FILE [--current FILE] \
         [--tolerance PCT] [--runs N] [--min-work N]\n%!";
      exit 2
  in
  let tolerance =
    match arg_after "--tolerance" with
    | None -> 20.0
    | Some s -> (
      match float_of_string_opt s with
      | Some t when t >= 0.0 -> t
      | _ ->
        Printf.eprintf "[gate] --tolerance expects a non-negative number, got %S\n%!" s;
        exit 2)
  in
  let baseline = gate_recs_of_file baseline_file in
  let current, current_src =
    match arg_after "--current" with
    | Some f -> (gate_recs_of_file f, f)
    | None ->
      let records, smokes = measure_perf () in
      List.iter (Printf.eprintf "[gate] sampling smoke FAILED: %s\n%!") smokes;
      if smokes <> [] then exit 1;
      ( List.map
          (fun r ->
            { g_workload = r.p_workload; g_mode = r.p_mode;
              g_rate = minstr_per_s r; g_instructions = r.p_instructions })
          records,
        "fresh measurement" )
  in
  let failed = ref false in
  (* Measured-work floor: a rate measured over a handful of instructions
     is startup cost and timer noise, not a simulation rate. Refuse to
     gate on such records instead of passing or failing on jitter. *)
  List.iter
    (fun c ->
      if c.g_instructions < min_work then begin
        Printf.eprintf
          "[gate] FAILED: %s measured only %d instructions, below the \
           --min-work floor of %d; the workload is too small for its rate \
           to mean anything\n%!"
          (gate_key c) c.g_instructions min_work;
        failed := true
      end)
    current;
  (* A sampled record exists to be cheaper than detailed simulation; a
     sampled rate below its full sibling means the machinery is pure
     overhead and the estimator should have fallen back to the exact
     path. Gate on it regardless of what the baseline says. *)
  List.iter
    (fun c ->
      if c.g_mode = "sampled" then
        match
          List.find_opt
            (fun f -> f.g_mode = "full" && f.g_workload = c.g_workload)
            current
        with
        | Some f when c.g_rate < f.g_rate ->
          Printf.eprintf
            "[gate] FAILED: %s rate %.2f Minstr/s is below its full \
             sibling's %.2f; sampling must buy wall clock, not cost it\n%!"
            (gate_key c) c.g_rate f.g_rate;
          failed := true
        | _ -> ())
    current;
  let rows =
    List.map
      (fun b ->
        let pct d = Printf.sprintf "%+.1f%%" d in
        let rate r = Printf.sprintf "%.2f" r in
        match List.find_opt (fun c -> gate_key c = gate_key b) current with
        | None ->
          failed := true;
          [ b.g_workload; b.g_mode; rate b.g_rate; "-"; "-"; "FAIL (missing)" ]
        | Some c ->
          let delta =
            if b.g_rate > 0.0 then (c.g_rate -. b.g_rate) /. b.g_rate *. 100.0
            else 0.0
          in
          let ok = delta >= -.tolerance in
          if not ok then failed := true;
          [ b.g_workload; b.g_mode; rate b.g_rate; rate c.g_rate; pct delta;
            (if ok then "ok" else "FAIL") ])
      baseline
  in
  Printf.printf "Perf gate: %s vs %s (tolerance %.1f%%)\n%s\n%!" current_src
    baseline_file tolerance
    (Tablefmt.render
       ~header:
         [ "workload"; "mode"; "baseline Minstr/s"; "current Minstr/s";
           "delta"; "status" ]
       rows);
  if !failed then begin
    Printf.eprintf
      "[gate] FAILED: a simulation rate regressed more than %.1f%% below \
       %s (or a record went missing); refresh the baseline with\n\
      \  dune exec bench/main.exe -- --bench-json bench/baseline.json\n\
       if the regression is intended\n%!"
      tolerance baseline_file;
    exit 1
  end

let () =
  if Array.exists (( = ) "gate") Sys.argv then run_gate () else perf ()
