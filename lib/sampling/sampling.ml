module Exec = Sempe_core.Exec
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Warm = Sempe_pipeline.Warm
module Pool = Sempe_util.Pool
module Stats = Sempe_util.Stats
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

type config = {
  interval : int;
  coverage : float;
  warmup : int;
  offset : int;
}

let default_config = { interval = 20_000; coverage = 0.25; warmup = 2_000; offset = 0 }

(* A reusable record of the fast-forward pass: the checkpoints selected
   for measurement plus the exact dynamic instruction count. Reviving a
   plan skips the sequential functional pass entirely. The plan pins the
   boundary-defining parameters so a mismatched revival is rejected
   instead of silently measuring the wrong intervals. A plan lives only
   in the process that recorded it. *)
type plan = {
  p_interval : int;
  p_warmup : int;
  p_stride : int;
  p_offset : int;  (** realized first measured interval *)
  p_points : (int * Checkpoint.t) list;  (** interval index, boundary state *)
  p_instructions : int;
  p_bytes : int;
}

type estimate = {
  instructions : int;
  cycles_estimate : int;
  cycles_low : int;
  cycles_high : int;
  cpi : float;
  intervals_total : int;
  intervals_measured : int;
  measured_instructions : int;
  measured_cycles : int;
  exact : bool;
  checkpoint_bytes : int;
  report : Timing.report option;
}

let stride_of config =
  max 1 (int_of_float (Float.round (1. /. config.coverage)))

(* Parametric cost model for the sampled path, per simulated instruction
   and relative to a full detailed run of the same program:

   - the functional fast-forward touches every instruction at
     [func_ratio] of the detailed per-instruction cost;
   - each measured interval re-simulates [warmup + interval] instructions
     in detail, one interval in every [stride];
   - each measured interval also pays a checkpoint save + restore
     (a walk of the written memory pages, a marshal round-trip and a
     pool handoff),
     charged as [checkpoint_equiv_instrs] detailed-instruction
     equivalents.

   The sum is independent of the program length, so the decision can be
   made before the program runs. [func_ratio] was chosen above the
   functional/detailed cost ratio measured at the time, so that the
   fallback fired only for clearly mis-sized configurations. It is no
   longer conservative. In the release build's traced records of the
   benchmark ledger (BENCH_16.json at the repository root), sim-grid's
   layers give (exec + warm) / (exec + sink + warm + timing) =
   0.375-0.394, and sampled-djpeg's measured cost ratio is 0.62 against
   a predicted 0.51: the model under-predicts the sampled path's cost.
   Refitting both constants from the ledger is an open item. A refit can
   move a fallback decision, and with it output bytes, so until then
   they stay as they are. *)
let func_ratio = 0.35
let checkpoint_equiv_instrs = 10_000
let fallback_threshold = 0.95

let predicted_cost_ratio config =
  let stride = stride_of config in
  if stride <= 1 then 1.0
  else
    let warmup = max 0 config.warmup in
    func_ratio
    +. float_of_int (warmup + config.interval + checkpoint_equiv_instrs)
       /. float_of_int (stride * config.interval)

let exec_config ~support ~(machine : Config.t) ~mem_words ~max_instrs
    ~forgiving_oob ~fault =
  {
    Exec.support;
    mem_words;
    max_instrs;
    spm = machine.Config.spm;
    jbtable_entries = machine.Config.jbtable_entries;
    forgiving_oob;
    fault;
  }

let intervals_of ~interval n = (n + interval - 1) / interval

(* Degenerate "sample everything" path: one ordinary full detailed run.
   Independent per-interval measurements cannot sum to the full run's
   cycle count exactly (pipeline state does not carry across interval
   boundaries), so full coverage is delivered by the only construction
   that is exact — contiguous detailed simulation. No pool is involved,
   which also makes this path trivially identical at any [-j]. *)
let exact ~machine ~exec_cfg ~interval ?init_mem prog =
  let timing = Timing.create ~config:machine () in
  let exec = Exec.run ~config:exec_cfg ?init_mem ~sink:(Timing.feed timing) prog in
  let report = Timing.report timing in
  let n = exec.Exec.dyn_instrs in
  let cycles = report.Timing.cycles in
  {
    instructions = n;
    cycles_estimate = cycles;
    cycles_low = cycles;
    cycles_high = cycles;
    cpi = report.Timing.cpi;
    intervals_total = intervals_of ~interval n;
    intervals_measured = intervals_of ~interval n;
    measured_instructions = n;
    measured_cycles = cycles;
    exact = true;
    checkpoint_bytes = 0;
    report = Some report;
  }

(* One measurement job: revive the checkpoint under a fresh detailed
   timing model, run [skip] instructions of detailed warmup (the pipeline
   refills and the interval does not start from an artificial drain), then
   measure one interval as the advance of the commit frontier. A pure
   function of the checkpoint bytes, so results are identical no matter
   which domain runs it or in what order. *)
let measure ~machine ~interval prog ckpt ~skip =
  let arch, warm = Checkpoint.restore ckpt in
  let timing = Timing.create ~config:machine ~warm () in
  let sess = Exec.resume ~sink:(Timing.feed timing) prog arch in
  if skip > 0 then ignore (Exec.step_slice sess skip : bool);
  let i0 = Exec.instructions sess in
  (* [current_cycles] counts the frontier's cycle, so a model that has
     committed nothing reads 1: without warmup the interval starts at
     cycle 0, which makes an interval from instruction 0 match the full
     run's count. *)
  let c0 = if skip > 0 then Timing.current_cycles timing else 0 in
  ignore (Exec.step_slice sess interval : bool);
  (Exec.instructions sess - i0, Timing.current_cycles timing - c0)

(* Shared aggregation of the measured (instructions, cycles) samples: a
   pure function of the samples, the total instruction count, and the
   checkpoint volume — so the cold (fast-forward) and warm (plan-revival)
   paths produce byte-identical estimates from the same checkpoints. *)
let aggregate ~machine ~exec_cfg ~interval ?init_mem prog ~samples ~n_total
    ~ckpt_bytes =
  match samples with
  | [] ->
    (* The program ended before the first checkpoint: nothing was
       sampled, so just measure it exactly — it is tiny by definition. *)
    exact ~machine ~exec_cfg ~interval ?init_mem prog
  | samples ->
    let sum_i = List.fold_left (fun a (di, _) -> a + di) 0 samples in
    let sum_c = List.fold_left (fun a (_, dc) -> a + dc) 0 samples in
    (* Ratio estimator: overall CPI as total measured cycles over total
       measured instructions (weights intervals by their true length),
       extrapolated to the whole run. *)
    let cpi = float_of_int sum_c /. float_of_int sum_i in
    let extrapolate c = int_of_float (Float.round (c *. float_of_int n_total)) in
    let cycles_estimate = extrapolate cpi in
    (* Error bound: nearest-rank percentiles of the per-interval CPI
       distribution, extrapolated the same way. With few samples the
       band degenerates towards [min, max], which is the honest answer. *)
    let summary = Stats.Summary.create () in
    List.iter
      (fun (di, dc) ->
        Stats.Summary.observe summary (float_of_int dc /. float_of_int di))
      samples;
    let cycles_low =
      min cycles_estimate (extrapolate (Stats.Summary.percentile 0.05 summary))
    in
    let cycles_high =
      max cycles_estimate (extrapolate (Stats.Summary.percentile 0.95 summary))
    in
    {
      instructions = n_total;
      cycles_estimate;
      cycles_low;
      cycles_high;
      cpi;
      intervals_total = intervals_of ~interval n_total;
      intervals_measured = List.length samples;
      measured_instructions = sum_i;
      measured_cycles = sum_c;
      exact = false;
      checkpoint_bytes = ckpt_bytes;
      report = None;
    }

let skip_of ~interval ~warmup k =
  let boundary = max 0 ((k * interval) - warmup) in
  (boundary, (k * interval) - boundary)

let estimate ?(machine = Config.default) ?(support = Exec.Sempe_hw)
    ?(mem_words = Exec.default_config.Exec.mem_words)
    ?(max_instrs = Exec.default_config.Exec.max_instrs)
    ?(forgiving_oob = true) ?(fault = Exec.No_fault) ?init_mem
    ?(config = default_config) ?workers ?plan ?plan_out
    ?(cost_fallback = true) prog =
  if config.interval <= 0 then
    invalid_arg "Sampling.estimate: interval must be positive";
  if not (config.coverage > 0. && config.coverage <= 1.) then
    invalid_arg "Sampling.estimate: coverage must be in (0, 1]";
  let interval = config.interval in
  let exec_cfg =
    exec_config ~support ~machine ~mem_words ~max_instrs ~forgiving_oob ~fault
  in
  let stride = stride_of config in
  if stride = 1 then exact ~machine ~exec_cfg ~interval ?init_mem prog
  else begin
    let warmup = max 0 config.warmup in
    let offset = ((config.offset mod stride) + stride) mod stride in
    (* The estimate is worker-count-independent, so oversubscribing cores
       can only cost time (every busy domain lengthens the stop-the-world
       minor-GC rendezvous): cap the pool at the host's recommended domain
       count. *)
    let workers =
      match workers with
      | None -> Pool.default_workers ()
      | Some w -> min w (Pool.default_workers ())
    in
    match plan with
    | Some p ->
      (* Warm path: revive a previously recorded plan — no functional
         fast-forward pass at all. Each measurement is a pure function of
         its checkpoint bytes, so the estimate is byte-identical to the
         cold run that produced the plan. *)
      if
        p.p_interval <> interval || p.p_warmup <> warmup
        || p.p_stride <> stride || p.p_offset <> offset
      then
        invalid_arg
          "Sampling.estimate: plan was recorded under a different \
           interval/warmup/coverage/offset";
      let pool = Pool.create ~workers () in
      let samples =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let promises =
              List.map
                (fun (k, ckpt) ->
                  let _, skip = skip_of ~interval ~warmup k in
                  Pool.submit pool (fun () ->
                      measure ~machine ~interval prog ckpt ~skip))
                p.p_points
            in
            List.filter (fun (di, _) -> di > 0) (List.map Pool.await promises))
      in
      aggregate ~machine ~exec_cfg ~interval ?init_mem prog ~samples
        ~n_total:p.p_instructions ~ckpt_bytes:p.p_bytes
    | None when cost_fallback && predicted_cost_ratio config >= fallback_threshold ->
      (* The model predicts the sampled machinery would cost at least
         about as much wall clock as simulating everything in detail:
         deliver the exact answer for the same price instead of a noisy
         estimate plus overhead (this is what made small sampled runs
         *slower* than their full siblings in the rate benchmark). *)
      exact ~machine ~exec_cfg ~interval ?init_mem prog
    | None ->
      let warm = Warm.create ~machine () in
      let sess = Exec.start ~config:exec_cfg ?init_mem ~warm prog in
      let pool = Pool.create ~workers () in
      let ckpt_bytes = ref 0 in
      let points = ref [] in
      (* Fast-forward to each measured interval's warmup boundary,
         snapshot, and hand the measurement to the pool while this domain
         keeps fast-forwarding towards the next boundary: checkpointing
         and measuring overlap instead of serializing. *)
      let rec schedule acc k =
        let boundary, skip = skip_of ~interval ~warmup k in
        let need = boundary - Exec.instructions sess in
        let halted =
          if need > 0 then Exec.step_slice sess need else Exec.halted sess
        in
        if halted then List.rev acc
        else begin
          let ckpt = Checkpoint.save ~arch:(Exec.capture sess) ~warm in
          ckpt_bytes := !ckpt_bytes + Checkpoint.size_bytes ckpt;
          points := (k, ckpt) :: !points;
          let p =
            Pool.submit pool (fun () ->
                measure ~machine ~interval prog ckpt ~skip)
          in
          schedule (p :: acc) (k + stride)
        end
      in
      let samples, n_total =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let promises = schedule [] offset in
            (* Finish the functional run: the total instruction count is
               the quantity the per-interval CPI is extrapolated over. *)
            let exec = Exec.finish sess in
            let samples =
              List.filter (fun (di, _) -> di > 0) (List.map Pool.await promises)
            in
            (samples, exec.Exec.dyn_instrs))
      in
      (* Export the plan only when the sampled path actually produced the
         estimate: a run that fell back to the exact path has nothing a
         revival could reuse. *)
      (match (plan_out, samples) with
       | Some store, _ :: _ ->
         store
           {
             p_interval = interval;
             p_warmup = warmup;
             p_stride = stride;
             p_offset = offset;
             p_points = List.rev !points;
             p_instructions = n_total;
             p_bytes = !ckpt_bytes;
           }
       | _ -> ());
      aggregate ~machine ~exec_cfg ~interval ?init_mem prog ~samples ~n_total
        ~ckpt_bytes:!ckpt_bytes
  end

let contains e ~cycles = e.cycles_low <= cycles && cycles <= e.cycles_high

let relative_error e ~cycles =
  if cycles = 0 then Float.abs (float_of_int e.cycles_estimate)
  else
    Float.abs (float_of_int (e.cycles_estimate - cycles))
    /. float_of_int cycles

let to_json e =
  Json.Obj
    [
      ("instructions", Json.Int e.instructions);
      ("cycles_estimate", Json.Int e.cycles_estimate);
      ("cycles_low", Json.Int e.cycles_low);
      ("cycles_high", Json.Int e.cycles_high);
      ("cpi", Json.Float e.cpi);
      ("intervals_total", Json.Int e.intervals_total);
      ("intervals_measured", Json.Int e.intervals_measured);
      ("measured_instructions", Json.Int e.measured_instructions);
      ("measured_cycles", Json.Int e.measured_cycles);
      ("exact", Json.Bool e.exact);
      ("checkpoint_bytes", Json.Int e.checkpoint_bytes);
    ]

let render e =
  Tablefmt.render ~header:[ "metric"; "value" ]
    [
      [ "instructions"; string_of_int e.instructions ];
      [ "cycles (estimate)"; string_of_int e.cycles_estimate ];
      [ "90% band"; Printf.sprintf "[%d, %d]" e.cycles_low e.cycles_high ];
      [ "CPI"; Tablefmt.fixed 3 e.cpi ];
      [ "intervals measured";
        Printf.sprintf "%d / %d" e.intervals_measured e.intervals_total ];
      [ "instructions measured";
        Printf.sprintf "%d (%.1f%%)" e.measured_instructions
          (100.
          *. float_of_int e.measured_instructions
          /. float_of_int (max 1 e.instructions)) ];
      [ "exact"; (if e.exact then "yes (full coverage)" else "no") ];
      [ "checkpoint volume";
        Printf.sprintf "%.1f KiB" (float_of_int e.checkpoint_bytes /. 1024.) ];
    ]
