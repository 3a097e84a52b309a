module Djpeg = Sempe_workloads.Djpeg
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Sampling = Sempe_sampling.Sampling
module Pool = Sempe_util.Pool
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

type cell = {
  workload : string;
  coverage : float;
  full_cycles : int;
  full_s : float;
  estimate : Sampling.estimate;
  sampled_s : float;
}

let error c = Sampling.relative_error c.estimate ~cycles:c.full_cycles
let in_bound c = Sampling.contains c.estimate ~cycles:c.full_cycles

let speedup c =
  if c.sampled_s > 0. then c.full_s /. c.sampled_s else Float.nan

(* One workload of the validation grid: a built program plus its input
   state, simulated once in full and once per coverage level. *)
type workload = {
  wname : string;
  built : Harness.built;
  globals : (string * int) list;
  arrays : (string * int array) list;
}

let djpeg_workload ~seed ~blocks format =
  let built = Harness.build Scheme.Sempe (Djpeg.program format) in
  let globals, arrays = Djpeg.inputs format ~seed ~blocks in
  {
    wname = Printf.sprintf "djpeg-%s" (Djpeg.format_name format);
    built;
    globals;
    arrays;
  }

let microbench_workload ~width ~iters kernel =
  let spec = { MB.kernel; width; iters } in
  let built = Harness.build Scheme.Sempe (MB.program ~ct:false spec) in
  {
    wname = Printf.sprintf "mb-%s" kernel.Kernels.name;
    built;
    globals = MB.secrets_for_leaf ~width ~leaf:1;
    arrays = [];
  }

(* Each workload is one Batch job: the full reference run and the sampled
   runs for every coverage level share the job so the wall-clock
   comparison is same-domain (and the full run happens exactly once).
   Inside a Batch job the sampler is pinned to [workers:1] — the fan-out
   already happens at the workload level, and nested pools on an
   oversubscribed host only add GC-rendezvous stalls. *)
let collect ?(coverages = [ 0.05; 0.10; 0.25 ]) ?interval ?(warmup = 2_000)
    ?(blocks = 32) ?(mb_width = 4) ?(mb_iters = 120) ?(seed = 42) () =
  let workloads =
    List.map (djpeg_workload ~seed ~blocks) Djpeg.all_formats
    @ List.map
        (microbench_workload ~width:mb_width ~iters:mb_iters)
        [ List.hd Kernels.all ]
  in
  Batch.map
    (fun w ->
      let t0 = Pool.now_s () in
      let outcome = Harness.run ~globals:w.globals ~arrays:w.arrays w.built in
      let full = Run.cycles outcome in
      let full_s = Pool.now_s () -. t0 in
      (* Unless pinned, size intervals to the workload (~40 per run) so
         every cell measures enough intervals for a meaningful band — a
         fixed interval degenerates on the smaller workloads. The 10k
         floor keeps per-interval boundary effects (the truncated
         detailed warmup) small relative to the interval itself. *)
      let interval =
        match interval with
        | Some i -> i
        | None ->
          max 10_000 (outcome.Run.timing.Sempe_pipeline.Timing.instructions / 40)
      in
      List.map
        (fun coverage ->
          let config = { Sampling.default_config with interval; coverage; warmup } in
          let t1 = Pool.now_s () in
          let estimate =
            Harness.sample ~globals:w.globals ~arrays:w.arrays ~config
              ~workers:1 w.built
          in
          let sampled_s = Pool.now_s () -. t1 in
          {
            workload = w.wname;
            coverage;
            full_cycles = full;
            full_s;
            estimate;
            sampled_s;
          })
        coverages)
    workloads
  |> List.concat

let render cells =
  let rows =
    List.map
      (fun c ->
        [
          c.workload;
          Tablefmt.percent c.coverage;
          string_of_int c.full_cycles;
          string_of_int c.estimate.Sampling.cycles_estimate;
          Printf.sprintf "[%d, %d]" c.estimate.Sampling.cycles_low
            c.estimate.Sampling.cycles_high;
          Tablefmt.percent (error c);
          (if in_bound c then "yes" else "NO");
        ])
      cells
  in
  "Sampled simulation vs full simulation (cycles; error relative to the full run)\n"
  ^ Tablefmt.render
      ~header:
        [
          "workload"; "coverage"; "full"; "estimate"; "90% band"; "error";
          "in-bound";
        ]
      rows

let render_wall cells =
  Tablefmt.render
    ~header:[ "workload"; "coverage"; "full s"; "sampled s"; "speedup" ]
    (List.map
       (fun c ->
         [
           c.workload;
           Tablefmt.percent c.coverage;
           Printf.sprintf "%.3f" c.full_s;
           Printf.sprintf "%.3f" c.sampled_s;
           Tablefmt.times (speedup c);
         ])
       cells)

let csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "workload,coverage,full_cycles,estimate,low,high,error,in_bound\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%.3f,%d,%d,%d,%d,%.5f,%b\n" c.workload c.coverage
           c.full_cycles c.estimate.Sampling.cycles_estimate
           c.estimate.Sampling.cycles_low c.estimate.Sampling.cycles_high
           (error c) (in_bound c)))
    cells;
  Buffer.contents buf

let to_json cells =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("workload", Json.Str c.workload);
             ("coverage", Json.Float c.coverage);
             ("full_cycles", Json.Int c.full_cycles);
             ("error", Json.Float (error c));
             ("in_bound", Json.Bool (in_bound c));
             ("estimate", Sampling.to_json c.estimate);
           ])
       cells)
