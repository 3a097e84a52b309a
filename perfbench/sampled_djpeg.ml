(* sampled-djpeg: cold [Harness.sample] of djpeg PPM at 64 blocks,
   rotating through 8 seed-derived images, with the settings the serving
   daemon uses (one measurement worker). The same simulator as sim-grid,
   with the work moved into the functional fast-forward (Exec + Warm)
   and checkpoints. *)

module Exec = Sempe_core.Exec
module Scheme = Sempe_core.Scheme
module Warm = Sempe_pipeline.Warm
module Harness = Sempe_workloads.Harness
module Djpeg = Sempe_workloads.Djpeg
module Sampling = Sempe_sampling.Sampling
module Checkpoint = Sempe_sampling.Checkpoint
module Rng = Sempe_util.Rng

let blocks = 64
let images = 8

(* Ops per rotation over the images, and the rate a reference host
   completes them at (sizes a run, see [Measure.ops_for]). *)
let round = images
let rate = 5.

let config =
  { Sampling.default_config with Sampling.interval = 20_000; coverage = 0.10; warmup = 2_000 }

let setup ~seed () =
  let rng = Rng.create seed in
  let built = Harness.build Scheme.Sempe (Djpeg.program Djpeg.Ppm) in
  Array.init images (fun _ ->
      let globals, arrays = Djpeg.inputs Djpeg.Ppm ~seed:(Rng.int rng 1_000_000) ~blocks in
      Layers.prog ~globals ~arrays built)

let sample ?plan ?plan_out (p : Layers.prog) =
  Harness.sample ~globals:p.Layers.globals ~arrays:p.Layers.arrays ~config ~workers:1 ?plan
    ?plan_out p.Layers.built

let sampled_path (e : Sampling.estimate) =
  (not e.Sampling.exact) && e.Sampling.intervals_measured > 0

(* Every op must take the sampled path and repeat its image's first
   estimate exactly; after the window each image's full-run cycles must
   land inside its band, or all of that image's ops count as failed. *)
let timed ~seed ~ops ~setup_reps =
  let progs, setup_s = Measure.setup_repeats ~reps:setup_reps ~teardown:ignore (setup ~seed) in
  let first = Array.make images None in
  let issued = Array.make images 0 and bad = Array.make images 0 in
  Gc.full_major ();
  let ops =
    Measure.closed_loop ~ops ~probe_every:1 (fun i ->
        let k = i mod images in
        let e, lat = Measure.time (fun () -> sample progs.(k)) in
        let e0 = match first.(k) with None -> first.(k) <- Some e; e | Some e0 -> e0 in
        issued.(k) <- issued.(k) + 1;
        if not (sampled_path e && e = e0) then bad.(k) <- bad.(k) + 1;
        (lat, e.Sampling.instructions))
  in
  let failed = ref 0 in
  Array.iteri
    (fun k (p : Layers.prog) ->
      let full = Harness.run ~globals:p.Layers.globals ~arrays:p.Layers.arrays p.Layers.built in
      let cycles = full.Sempe_core.Run.timing.Sempe_pipeline.Timing.cycles in
      match first.(k) with
      | Some e when Sampling.contains e ~cycles -> failed := !failed + bad.(k)
      | _ -> failed := !failed + issued.(k))
    progs;
  (List.length ops, !failed, Measure.end_to_end ~setup_s ~round ops)

(* Checkpoint save/restore of one mid-run state of [p]: medians of [reps]. *)
let checkpoint_costs ~reps (p : Layers.prog) ~at =
  let b = p.Layers.built in
  let exec_config = { Exec.default_config with support = Scheme.support b.Harness.scheme } in
  let warm = Warm.create () in
  let s =
    Exec.start ~config:exec_config
      ~init_mem:(Harness.init_mem_of b ~globals:p.Layers.globals ~arrays:p.Layers.arrays)
      ~warm b.Harness.prog
  in
  ignore (Exec.step_slice s at);
  let arch = Exec.capture s in
  let saves =
    List.init reps (fun _ ->
        Measure.span "sampling.checkpoint_save" (fun () -> Checkpoint.save ~arch ~warm))
  in
  let ck = fst (List.hd saves) in
  let restores =
    List.init reps (fun _ ->
        snd (Measure.span "sampling.checkpoint_restore" (fun () -> Checkpoint.restore ck)))
  in
  (Measure.median (List.map snd saves), Measure.median restores)

type dissection = {
  cold : Sampling.estimate;
  cold_s : float;
  words : float;  (** minor words allocated by the cold estimate *)
  replay_same : bool;  (** the [?plan] replay reproduced the estimate *)
  replay_s : float;
  save_s : float;
  restore_s : float;
  layers : Layers.modes;
}

let dissect i p =
  let plan = ref None in
  let w0 = Gc.minor_words () in
  let cold, cold_s =
    Measure.span ~op:i "sampling.cold_estimate" (fun () ->
        sample ~plan_out:(fun pl -> plan := Some pl) p)
  in
  let words = Gc.minor_words () -. w0 in
  let replay, replay_s =
    Measure.span ~op:i "sampling.measure" (fun () -> sample ?plan:!plan p)
  in
  let save_s, restore_s = checkpoint_costs ~reps:5 p ~at:(cold.Sampling.instructions / 2) in
  let layers = Layers.replay ~op:i p in
  { cold; cold_s; words; replay_same = replay = cold; replay_s; save_s; restore_s; layers }

let traced ~seed ~smoke =
  let progs = setup ~seed () in
  let progs = if smoke then Array.sub progs 0 1 else progs in
  let build_ms =
    let b = progs.(0).Layers.built in
    1e3
    *. Measure.median
         (List.init 5 (fun _ ->
              snd (Measure.span "lang.build" (fun () -> Harness.build b.Harness.scheme b.Harness.ast))))
  in
  let fixed = Layers.fixed ~reps:(if smoke then 2 else 7) (Layers.tiny ()) in
  let ds =
    Array.to_list
      (Array.mapi (fun i p -> fst (Measure.span ~op:i "sampled.op" (fun () -> dissect i p))) progs)
  in
  let med_ms f = 1e3 *. Measure.median (List.map f ds) in
  let cold_ms = med_ms (fun d -> d.cold_s) and replay_ms = med_ms (fun d -> d.replay_s) in
  let save_ms = med_ms (fun d -> d.save_s) in
  let measured = Measure.median (List.map (fun d -> float_of_int d.cold.Sampling.intervals_measured) ds) in
  (* Independent pieces of a cold estimate: the functional-warming pass,
     one checkpoint save per measured interval, and the measurement
     replay. Whatever the cold estimate costs beyond them is the
     unexplained remainder. *)
  let parts = med_ms (fun d -> d.layers.Layers.warm) +. (measured *. save_ms) +. replay_ms in
  let failed =
    List.length
      (List.filter
         (fun d ->
           (not (sampled_path d.cold)) || (not d.replay_same) || (not d.layers.Layers.consistent)
           || not (Sampling.contains d.cold ~cycles:d.layers.Layers.cycles))
         ds)
  in
  let instrs = List.fold_left (fun a d -> a + d.cold.Sampling.instructions) 0 ds in
  let words_per_instr = Measure.sum (List.map (fun d -> d.words) ds) /. float_of_int instrs in
  let sim =
    List.map
      (fun (m : Measure.metric) ->
        if m.Measure.name = "ocaml.minor_words_per_instr" then { m with Measure.value = words_per_instr }
        else m)
      (Layers.summarize ~fixed (List.map (fun d -> d.layers) ds))
  in
  let pass traced =
    Measure.sum
      (List.mapi
         (fun i p ->
           snd
             (Measure.time (fun () ->
                  if traced then ignore (Measure.span ~op:i "sampled.op" (fun () -> sample p))
                  else ignore (sample p))))
         (Array.to_list progs))
  in
  let untraced = pass false in
  let with_spans = pass true in
  ( List.length ds,
    failed,
    sim
    @ [
        Measure.metric "lang.build_ms" "ms" build_ms;
        Measure.metric "sampling.fastforward_ms" "ms" (cold_ms -. replay_ms);
        Measure.metric "sampling.measure_ms" "ms" replay_ms;
        Measure.metric "sampling.checkpoint_save_ms" "ms" save_ms;
        Measure.metric "sampling.checkpoint_restore_ms" "ms" (med_ms (fun d -> d.restore_s));
        Measure.metric "sampling.checkpoint_kb" "KiB"
          (Measure.median (List.map (fun d -> float_of_int d.cold.Sampling.checkpoint_bytes) ds) /. 1024.);
        Measure.metric "sampling.intervals_measured" "count" measured;
        Measure.metric "sampling.predicted_cost_ratio" "ratio" (Sampling.predicted_cost_ratio config);
        Measure.metric "sampling.measured_cost_ratio" "ratio"
          (cold_ms /. med_ms (fun d -> d.layers.Layers.harness));
        Measure.metric "reconcile.sample_remainder_pct" "%" (100. *. (cold_ms -. parts) /. cold_ms);
        Measure.metric "trace.overhead_pct" "%" (100. *. (with_spans -. untraced) /. untraced);
      ] )
