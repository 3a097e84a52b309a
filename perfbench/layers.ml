(* Add-one-layer replay, the method of bench/hotpath.ml: run one program
   functionally, then with a discarding µop sink, then with functional
   warming, then under the detailed timing model, then through
   [Harness.run]; each mode adds exactly one layer to the previous, so
   the differences price the layers. A tiny program replayed the same way
   prices the per-run fixed cost, which is subtracted before any
   per-instruction figure is taken. *)

module Exec = Sempe_core.Exec
module Run = Sempe_core.Run
module Scheme = Sempe_core.Scheme
module Timing = Sempe_pipeline.Timing
module Warm = Sempe_pipeline.Warm
module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa

type prog = {
  built : Harness.built;
  globals : (string * int) list;
  arrays : (string * int array) list;
}

let prog ?(globals = []) ?(arrays = []) built = { built; globals; arrays }

(* Seconds per mode, plus the simulated counts and the allocation of the
   [Harness.run] mode. *)
type modes = {
  exec : float;  (** [Exec.run], no sink *)
  null_sink : float;  (** [Exec.run] feeding a sink that drops every µop *)
  warm : float;  (** [Exec.start ~warm]: functional warming *)
  detailed : float;  (** [Exec.run] feeding [Timing.feed] *)
  harness : float;  (** [Harness.run] *)
  instrs : int;
  cycles : int;
  words : float;  (** minor-heap words allocated by [Harness.run] *)
  consistent : bool;  (** hand-driven timing report = [Harness.run]'s *)
}

let replay ?(op = -1) p =
  let config = { Exec.default_config with support = Scheme.support p.built.Harness.scheme } in
  let init_mem = Harness.init_mem_of p.built ~globals:p.globals ~arrays:p.arrays in
  let prog = p.built.Harness.prog in
  (* Each mode starts on a collected heap, so no mode pays for the
     garbage of the one before it. *)
  let span name f =
    Gc.full_major ();
    snd (Measure.span ~op name f)
  in
  let exec = span "core.exec" (fun () -> ignore (Exec.run ~config ~init_mem prog)) in
  let null_sink =
    span "core.uop_sink" (fun () ->
        ignore (Exec.run ~config ~init_mem ~sink:(fun _ -> ()) prog))
  in
  let warm =
    span "pipeline.warm" (fun () ->
        ignore (Exec.finish (Exec.start ~config ~init_mem ~warm:(Warm.create ()) prog)))
  in
  let report = ref None in
  let detailed =
    span "pipeline.timing" (fun () ->
        let t = Timing.create () in
        ignore (Exec.run ~config ~init_mem ~sink:(Timing.feed t) prog);
        report := Some (Timing.report t))
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let outcome, harness =
    Measure.span ~op "workloads.harness_run" (fun () ->
        Harness.run ~globals:p.globals ~arrays:p.arrays p.built)
  in
  let words = Gc.minor_words () -. w0 in
  let r = outcome.Run.timing in
  {
    exec;
    null_sink;
    warm;
    detailed;
    harness;
    instrs = r.Timing.instructions;
    cycles = r.Timing.cycles;
    words;
    consistent = !report = Some r;
  }

(* The serving workload's miss program: RSA modular exponentiation under
   SeMPE, a few hundred instructions, so its [Harness.run] is almost all
   machine construction. *)
let tiny () =
  let globals, arrays = Rsa.inputs ~key:0xbeef ~base:1234 ~modulus:99991 in
  prog ~globals ~arrays (Harness.build Scheme.Sempe Rsa.program)

(* Per-mode medians over [reps] replays. *)
let fixed ~reps p =
  let rs = List.init reps (fun _ -> replay p) in
  let med f = Measure.median (List.map f rs) in
  {
    (List.hd rs) with
    exec = med (fun m -> m.exec);
    null_sink = med (fun m -> m.null_sink);
    warm = med (fun m -> m.warm);
    detailed = med (fun m -> m.detailed);
    harness = med (fun m -> m.harness);
  }

(* Aggregate per-layer figures over a set of replays. Each mode's fixed
   cost (the tiny program's time in that mode) is subtracted per replay;
   layers are the differences between adjacent modes, per marginal
   instruction:

   - exec     = exec
   - sink     = null_sink - exec
   - warm     = warm - exec
   - timing   = detailed - null_sink - warm share (the scheduler itself,
                without the warm updates it shares with fast-forward)

   so exec + sink + warm + timing = detailed, and [Harness.run] should
   come to the tiny program's fixed [Harness.run] cost plus that. What
   does not is the unexplained remainder, reported on its own. *)
let summarize ~fixed:f (rs : modes list) =
  let n = float_of_int (List.length rs) in
  let total g = Measure.sum (List.map g rs) in
  let instrs = List.fold_left (fun a m -> a + m.instrs - f.instrs) 0 rs in
  let per_instr x = x *. 1e9 /. float_of_int (max 1 instrs) in
  let m_exec = total (fun m -> m.exec -. f.exec) in
  let m_null = total (fun m -> m.null_sink -. f.null_sink) in
  let m_warm = total (fun m -> m.warm -. f.warm) in
  let m_det = total (fun m -> m.detailed -. f.detailed) in
  let harness = total (fun m -> m.harness) in
  let remainder = harness -. (m_det +. (n *. f.harness)) in
  let all_instrs = List.fold_left (fun a m -> a + m.instrs) 0 rs in
  [
    Measure.metric "core.exec_ns_per_instr" "ns/instr" (per_instr m_exec);
    Measure.metric "core.uop_sink_ns_per_instr" "ns/instr" (per_instr (m_null -. m_exec));
    Measure.metric "pipeline.warm_ns_per_instr" "ns/instr" (per_instr (m_warm -. m_exec));
    Measure.metric "pipeline.timing_ns_per_instr" "ns/instr"
      (per_instr (m_det -. m_null -. (m_warm -. m_exec)));
    Measure.metric "ocaml.minor_words_per_instr" "words/instr"
      (total (fun m -> m.words) /. float_of_int (max 1 all_instrs));
    Measure.metric "pipeline.instructions" "count" (float_of_int all_instrs);
    Measure.metric "pipeline.cycles" "count"
      (float_of_int (List.fold_left (fun a m -> a + m.cycles) 0 rs));
    Measure.metric "workloads.run_fixed_ms" "ms" (f.harness *. 1e3);
    Measure.metric "reconcile.sim_remainder_pct" "%" (100. *. remainder /. harness);
  ]
