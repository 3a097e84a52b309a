module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Run = Sempe_core.Run
module Scheme = Sempe_core.Scheme
module Harness = Sempe_workloads.Harness
module Eval = Sempe_lang.Eval
module Timing = Sempe_pipeline.Timing
module Warm = Sempe_pipeline.Warm
module Observable = Sempe_security.Observable
module Leakage = Sempe_security.Leakage
module Witness = Sempe_security.Witness
module Attribution = Sempe_security.Attribution
module Sink = Sempe_obs.Sink
module Sampling = Sempe_sampling.Sampling
module Checkpoint = Sempe_sampling.Checkpoint

type ctx = { fault : Exec.fault; mem_words : int }

let default_ctx = { fault = Exec.No_fault; mem_words = 1 lsl 14 }

type verdict = Pass | Fail of string

type t = { name : string; describe : string; check : ctx -> Gen.case -> verdict }

let arrays_of (case : Gen.case) = [ (Gen.array_name, case.fill) ]

let pp_secrets secrets =
  String.concat ", "
    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) secrets)

(* ---- state equivalence -------------------------------------------------- *)

type state = { rv : int; gvals : int list; arr : int array }

let reference (case : Gen.case) secrets =
  let st = Eval.init case.prog in
  List.iter (fun (name, value) -> Eval.set_global st name value) secrets;
  Eval.set_array st Gen.array_name case.fill;
  let rv = Eval.run ~max_steps:2_000_000 st in
  {
    rv;
    gvals = List.map (Eval.get_global st) Gen.globals;
    arr = Eval.get_array st Gen.array_name;
  }

(* Architectural state only, so the pure functional executor suffices —
   no detailed timing model. This is what lets the state oracle afford
   3 schemes x 6 secret assignments on every case. *)
let simulated ctx built secrets (case : Gen.case) =
  let module Codegen = Sempe_lang.Codegen in
  let res =
    Run.execute
      ~support:(Scheme.support built.Harness.scheme)
      ~mem_words:ctx.mem_words ~fault:ctx.fault
      ~init_mem:
        (Harness.init_mem_of built ~globals:secrets ~arrays:(arrays_of case))
      built.Harness.prog
  in
  let layout = built.Harness.layout in
  let off, size = Codegen.array_slice layout Gen.array_name in
  {
    rv = res.Exec.regs.(Sempe_isa.Reg.rv);
    gvals =
      List.map
        (fun g -> Memory.get res.Exec.memory (Codegen.scalar_offset layout g))
        Gen.globals;
    arr = Memory.sub res.Exec.memory off size;
  }

let state_diff expected got =
  if got.rv <> expected.rv then
    Some (Printf.sprintf "return value: expected %d, got %d" expected.rv got.rv)
  else if got.gvals <> expected.gvals then
    Some
      (Printf.sprintf "globals: expected [%s], got [%s]"
         (String.concat "; " (List.map string_of_int expected.gvals))
         (String.concat "; " (List.map string_of_int got.gvals)))
  else if got.arr <> expected.arr then
    Some
      (Printf.sprintf "%s contents: expected [%s], got [%s]" Gen.array_name
         (String.concat "; "
            (List.map string_of_int (Array.to_list expected.arr)))
         (String.concat "; " (List.map string_of_int (Array.to_list got.arr))))
  else None

let check_state ctx (case : Gen.case) =
  let schemes = [ Scheme.Baseline; Scheme.Sempe; Scheme.Sempe_on_legacy ] in
  let builts =
    List.map (fun s -> (s, Harness.build ~fault:ctx.fault s case.prog)) schemes
  in
  let rec go = function
    | [] -> Pass
    | secrets :: rest ->
      let expected = reference case secrets in
      let rec try_schemes = function
        | [] -> go rest
        | (scheme, built) :: more -> (
          match state_diff expected (simulated ctx built secrets case) with
          | None -> try_schemes more
          | Some diff ->
            Fail
              (Printf.sprintf "%s under {%s}: %s" (Scheme.name scheme)
                 (pp_secrets secrets) diff))
      in
      try_schemes builts
  in
  go case.secrets

(* ---- trace independence ------------------------------------------------- *)

let check_trace ctx (case : Gen.case) =
  let built = Harness.build ~fault:ctx.fault Scheme.Sempe case.prog in
  let view secrets =
    let recorder = Observable.recorder () in
    let w = Witness.create () in
    let outcome =
      Harness.run ~fault:ctx.fault ~globals:secrets ~arrays:(arrays_of case)
        ~mem_words:ctx.mem_words
        ~sink:
          (Sink.tee
             (Sink.of_probe (Observable.probe recorder))
             (Sink.of_probe (Witness.probe w)))
        built
    in
    (Observable.view recorder outcome, w)
  in
  let pairs = List.map view case.secrets in
  let views = List.map fst pairs and witnesses = List.map snd pairs in
  let findings = Leakage.compare_views ~witnesses views in
  match List.filter Leakage.leaks findings with
  | [] -> Pass
  | leaky ->
    let describe (f : Leakage.finding) =
      match f.Leakage.first_divergence with
      | Some i ->
        Printf.sprintf "%s (first divergence at event %d)"
          (Leakage.channel_name f.Leakage.channel) i
      | None -> Leakage.channel_name f.Leakage.channel
    in
    Fail
      (Printf.sprintf "SeMPE run distinguishes secrets on channel(s): %s"
         (String.concat ", " (List.map describe leaky)))

(* ---- timing-report invariants ------------------------------------------- *)

let check_timing ctx (case : Gen.case) =
  let schemes = [ Scheme.Baseline; Scheme.Sempe ] in
  let rec go = function
    | [] -> Pass
    | (scheme, secrets) :: rest -> (
      let built = Harness.build ~fault:ctx.fault scheme case.prog in
      let outcome =
        Harness.run ~fault:ctx.fault ~globals:secrets ~arrays:(arrays_of case)
          ~mem_words:ctx.mem_words built
      in
      match Timing.check_report outcome.Run.timing with
      | [] -> go rest
      | errs ->
        Fail
          (Printf.sprintf "%s under {%s}: %s" (Scheme.name scheme)
             (pp_secrets secrets)
             (String.concat "; " errs)))
  in
  (* two assignments per scheme: the structural invariants do not depend
     on which secrets are live, and the full set would double the cost of
     every case for no extra signal *)
  let secrets =
    match case.secrets with a :: b :: _ -> [ a; b ] | short -> short
  in
  go (List.concat_map (fun s -> List.map (fun sec -> (s, sec)) secrets) schemes)

(* ---- sampled estimate at full coverage ---------------------------------- *)

let check_sampling ctx (case : Gen.case) =
  let built = Harness.build ~fault:ctx.fault Scheme.Sempe case.prog in
  let secrets = List.hd case.secrets in
  let full =
    Harness.run ~fault:ctx.fault ~globals:secrets ~arrays:(arrays_of case)
      ~mem_words:ctx.mem_words built
  in
  let est =
    Harness.sample ~fault:ctx.fault ~globals:secrets ~arrays:(arrays_of case)
      ~mem_words:ctx.mem_words
      ~config:{ Sampling.interval = 256; coverage = 1.0; warmup = 0; offset = 0 }
      ~workers:1 built
  in
  if not est.Sampling.exact then
    Fail "full-coverage estimate did not take the exact path"
  else if est.Sampling.cycles_estimate <> Run.cycles full then
    Fail
      (Printf.sprintf
         "full-coverage estimate: %d cycles, contiguous run: %d cycles"
         est.Sampling.cycles_estimate (Run.cycles full))
  else if est.Sampling.instructions <> full.Run.exec.Exec.dyn_instrs then
    Fail
      (Printf.sprintf
         "full-coverage estimate: %d instructions, contiguous run: %d"
         est.Sampling.instructions full.Run.exec.Exec.dyn_instrs)
  else
    match est.Sampling.report with
    | None -> Fail "full-coverage estimate carries no detailed report"
    | Some r when r <> full.Run.timing ->
      Fail "full-coverage report differs from the contiguous run's report"
    | Some _ -> Pass

(* ---- checkpoint round-trip ---------------------------------------------- *)

let check_checkpoint ctx (case : Gen.case) =
  let built = Harness.build ~fault:ctx.fault Scheme.Sempe case.prog in
  let secrets = List.hd case.secrets in
  let support = Scheme.support built.Harness.scheme in
  let prog = built.Harness.prog in
  let init_mem =
    Harness.init_mem_of built ~globals:secrets ~arrays:(arrays_of case)
  in
  let reference =
    Run.execute ~support ~mem_words:ctx.mem_words ~fault:ctx.fault ~init_mem
      prog
  in
  if reference.Exec.dyn_instrs < 2 then Pass
  else begin
    let exec_config =
      {
        Exec.default_config with
        Exec.support;
        mem_words = ctx.mem_words;
        fault = ctx.fault;
      }
    in
    let cut = reference.Exec.dyn_instrs / 2 in
    let warm = Warm.create () in
    let sess = Exec.start ~config:exec_config ~init_mem ~warm prog in
    let (_ : bool) = Exec.step_slice sess cut in
    let ckpt = Checkpoint.save ~arch:(Exec.capture sess) ~warm in
    let arch2, warm2 = Checkpoint.restore ckpt in
    let ckpt2 = Checkpoint.save ~arch:arch2 ~warm:warm2 in
    if Checkpoint.digest ckpt <> Checkpoint.digest ckpt2 then
      Fail "save/restore/save round-trip is not byte-identical"
    else if Checkpoint.instructions ckpt <> Checkpoint.instructions ckpt2 then
      Fail "round-tripped checkpoint changed its instruction count"
    else if Checkpoint.halted ckpt <> Checkpoint.halted ckpt2 then
      Fail "round-tripped checkpoint changed its halted flag"
    else begin
      let from_restore = Exec.finish (Exec.resume prog arch2) in
      let from_session = Exec.finish sess in
      let agree label (r : Exec.result) =
        if r.Exec.regs <> reference.Exec.regs then
          Some (label ^ ": final registers differ from uncheckpointed run")
        else if not (Memory.equal r.Exec.memory reference.Exec.memory) then
          Some (label ^ ": final memory differs from uncheckpointed run")
        else if r.Exec.dyn_instrs <> reference.Exec.dyn_instrs then
          Some (label ^ ": instruction count differs from uncheckpointed run")
        else None
      in
      match
        (agree "resumed restore" from_restore, agree "original session" from_session)
      with
      | None, None -> Pass
      | Some msg, _ | _, Some msg -> Fail msg
    end
  end

(* ---- leakage attribution of a reproducer --------------------------------- *)

let witness_of ctx ~fault built secrets (case : Gen.case) =
  let w = Witness.create () in
  let (_ : Run.outcome) =
    Harness.run ~fault ~globals:secrets ~arrays:(arrays_of case)
      ~mem_words:ctx.mem_words
      ~sink:(Sink.of_probe (Witness.probe w))
      built
  in
  w

(* Localize what a failing case leaks: first diff the (possibly faulted)
   SeMPE build's attacker streams across the case's secrets; when those
   are identical (a value-only bug such as a skipped restore corrupts
   state without splitting the streams across secrets), fall back to
   diffing the faulted build against the clean build under one secret —
   the dropped statements shift every later pc, so the divergence names
   the site of the missing protocol step. *)
let attribute ctx (case : Gen.case) =
  let built = Harness.build ~fault:ctx.fault Scheme.Sempe case.prog in
  let cross =
    List.map
      (fun secrets -> witness_of ctx ~fault:ctx.fault built secrets case)
      case.secrets
  in
  let cross_attr =
    match cross with
    | _ :: _ :: _ -> Some (Attribution.attribute cross)
    | _ -> None
  in
  match cross_attr with
  | Some attr when not (Attribution.is_clean attr) ->
    Some (attr, built.Harness.prog, "across secrets (SeMPE build)")
  | _ -> (
    match ctx.fault with
    | Exec.No_fault -> None
    | _ ->
      let clean = Harness.build Scheme.Sempe case.prog in
      let secrets = List.hd case.secrets in
      let wc = witness_of ctx ~fault:Exec.No_fault clean secrets case in
      let wf = witness_of ctx ~fault:ctx.fault built secrets case in
      let attr = Attribution.attribute [ wc; wf ] in
      if Attribution.is_clean attr then None
      else Some (attr, clean.Harness.prog, "faulted vs clean build"))

(* ---- registry ------------------------------------------------------------ *)

let all =
  [
    {
      name = "state";
      describe =
        "reference interpreter, legacy, SeMPE and SeMPE-on-legacy builds \
         agree on all architectural results for every secret assignment";
      check = check_state;
    };
    {
      name = "trace";
      describe =
        "SeMPE runs under different secrets are indistinguishable on every \
         attacker channel";
      check = check_trace;
    };
    {
      name = "timing";
      describe =
        "detailed reports satisfy the stall-stack and rate invariants";
      check = check_timing;
    };
    {
      name = "sampling";
      describe =
        "the sampled estimator at 100% coverage reproduces the full run \
         bit-for-bit";
      check = check_sampling;
    };
    {
      name = "checkpoint";
      describe =
        "checkpoint save/restore round-trips byte-identically and resumes \
         to the same final state";
      check = check_checkpoint;
    };
  ]

let names = List.map (fun o -> o.name) all
let find name = List.find_opt (fun o -> o.name = name) all

let run_all oracles ctx case =
  let rec go = function
    | [] -> None
    | o :: rest -> (
      match (try o.check ctx case with exn -> Fail (Printexc.to_string exn)) with
      | Pass -> go rest
      | Fail msg -> Some (o.name, msg))
  in
  go oracles
