(* sim-grid: the paper's own evaluation traffic. Full detailed
   [Harness.run] on one domain over prebuilt cells — the four Figure-10
   kernels at W=4 under baseline, SeMPE and CTE, and djpeg PPM and GIF
   under baseline and SeMPE. *)

module Exec = Sempe_core.Exec
module Run = Sempe_core.Run
module Scheme = Sempe_core.Scheme
module Harness = Sempe_workloads.Harness
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Djpeg = Sempe_workloads.Djpeg
module Rng = Sempe_util.Rng

let width = 4

(* Iterations per (kernel, scheme) and blocks per djpeg format, sized so
   that the cells take about the same host time (0.8M to 1.3M committed
   instructions each): the latency percentiles then fall inside one mode
   instead of between two cells. The CTE quicksort and queens kernels
   only come in steps of ~0.4M instructions. *)
let kernel_cells =
  [
    (Kernels.fibonacci, [ (Scheme.Baseline, 927); (Scheme.Sempe, 169); (Scheme.Cte, 88) ]);
    (Kernels.ones, [ (Scheme.Baseline, 396); (Scheme.Sempe, 76); (Scheme.Cte, 56) ]);
    (Kernels.quicksort, [ (Scheme.Baseline, 62); (Scheme.Sempe, 10); (Scheme.Cte, 2) ]);
    (Kernels.queens, [ (Scheme.Baseline, 161); (Scheme.Sempe, 30); (Scheme.Cte, 3) ]);
  ]

let djpeg_cells = [ (Djpeg.Ppm, 26); (Djpeg.Gif, 15) ]

(* Ops per rotation over the cells, and the rate a reference host
   completes them at (sizes a run, see [Measure.ops_for]). *)
let round = (3 * List.length kernel_cells) + (2 * List.length djpeg_cells)
let rate = 9.

type cell = {
  label : string;
  layer_prog : Layers.prog;
  reference : unit -> int;
      (** the checksum this cell must return: the baseline build's, run
          functionally on the same inputs (the paper's "both paths end in
          the baseline's architectural state") *)
}

let functional_checksum (p : Layers.prog) =
  let b = p.Layers.built in
  let r =
    Run.execute ~support:(Scheme.support b.Harness.scheme)
      ~init_mem:(Harness.init_mem_of b ~globals:p.Layers.globals ~arrays:p.Layers.arrays)
      b.Harness.prog
  in
  r.Exec.regs.(Sempe_isa.Reg.rv)

let setup ~seed () =
  let rng = Rng.create seed in
  let kernels =
    List.concat_map
      (fun (k, schemes) ->
        let globals = MB.secrets_for_leaf ~width ~leaf:(1 + Rng.int rng (width + 1)) in
        List.map
          (fun (scheme, iters) ->
            let spec = { MB.kernel = k; width; iters } in
            let ct = scheme = Scheme.Cte in
            let baseline () =
              Layers.prog ~globals (Harness.build Scheme.Baseline (MB.program ~ct:false spec))
            in
            {
              label = Printf.sprintf "%s-%s" k.Kernels.name (Scheme.name scheme);
              layer_prog = Layers.prog ~globals (Harness.build scheme (MB.program ~ct spec));
              reference = (fun () -> functional_checksum (baseline ()));
            })
          schemes)
      kernel_cells
  in
  let djpegs =
    List.concat_map
      (fun (fmt, blocks) ->
        let globals, arrays = Djpeg.inputs fmt ~seed:(Rng.int rng 1_000_000) ~blocks in
        let baseline () =
          Layers.prog ~globals ~arrays (Harness.build Scheme.Baseline (Djpeg.program fmt))
        in
        List.map
          (fun scheme ->
            {
              label = Printf.sprintf "djpeg-%s-%s" (Djpeg.format_name fmt) (Scheme.name scheme);
              layer_prog = Layers.prog ~globals ~arrays (Harness.build scheme (Djpeg.program fmt));
              reference = (fun () -> functional_checksum (baseline ()));
            })
          [ Scheme.Baseline; Scheme.Sempe ])
      djpeg_cells
  in
  let cells = Array.of_list (kernels @ djpegs) in
  Rng.shuffle rng cells;
  cells

let run_cell (c : cell) =
  let p = c.layer_prog in
  Harness.run ~globals:p.Layers.globals ~arrays:p.Layers.arrays p.Layers.built

let checksums cells = Array.map (fun c -> c.reference ()) cells

let timed ~seed ~ops ~setup_reps =
  let cells, setup_s =
    Measure.setup_repeats ~reps:setup_reps ~teardown:ignore (setup ~seed)
  in
  let n = Array.length cells in
  let results = Array.make n [] in
  Gc.full_major ();
  let ops =
    Measure.closed_loop ~ops ~probe_every:1 (fun i ->
        let c = i mod n in
        let outcome, lat = Measure.time (fun () -> run_cell cells.(c)) in
        results.(c) <- Harness.return_value outcome :: results.(c);
        (lat, outcome.Run.timing.Sempe_pipeline.Timing.instructions))
  in
  let expected = checksums cells in
  let failed =
    Array.to_list (Array.mapi (fun c rs -> List.length (List.filter (( <> ) expected.(c)) rs)) results)
    |> List.fold_left ( + ) 0
  in
  (List.length ops, failed, Measure.end_to_end ~setup_s ~round ops)

(* The traced run: one add-one-layer replay per cell, then one untraced
   and one traced pass over the same cells for the tracing overhead. *)
let traced ~seed ~smoke =
  let cells = setup ~seed () in
  let cells = if smoke then Array.sub cells 0 2 else cells in
  let build_ms =
    Measure.median
      (Array.to_list
         (Array.map
            (fun c ->
              let b = c.layer_prog.Layers.built in
              snd (Measure.span "lang.build" (fun () -> Harness.build b.Harness.scheme b.Harness.ast)))
            cells))
    *. 1e3
  in
  let fixed = Layers.fixed ~reps:(if smoke then 2 else 7) (Layers.tiny ()) in
  let expected = checksums cells in
  let replays =
    Array.to_list
      (Array.mapi
         (fun i c -> fst (Measure.span ~op:i ("replay " ^ c.label) (fun () -> Layers.replay ~op:i c.layer_prog)))
         cells)
  in
  let pass traced =
    Measure.sum
      (Array.to_list
         (Array.mapi
            (fun i c ->
              let (outcome, _), dt =
                Measure.time (fun () ->
                    if traced then Measure.span ~op:i "sim.op" (fun () -> run_cell c)
                    else (run_cell c, 0.))
              in
              if Harness.return_value outcome <> expected.(i) then infinity else dt)
            cells))
  in
  let untraced = pass false in
  let with_spans = pass true in
  let failed =
    List.length (List.filter (fun m -> not m.Layers.consistent) replays)
    + (if Float.is_finite (untraced +. with_spans) then 0 else 1)
  in
  ( Array.length cells,
    failed,
    Layers.summarize ~fixed replays
    @ [
        Measure.metric "lang.build_ms" "ms" build_ms;
        Measure.metric "trace.overhead_pct" "%" (100. *. (with_spans -. untraced) /. untraced);
      ] )
