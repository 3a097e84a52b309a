(* Compiler-support passes: automatic secret annotation, plus the ITTAGE
   predictor and the indirect-jump path. *)

open Sempe_lang.Ast
module Secrecy = Sempe_lang.Secrecy
module Parser = Sempe_lang.Parser
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme

let unannotated =
  Parser.program
    {|
global s;
global out;
@secret s;

func main() locals(t, k) {
  t = s * 2 + 1;
  if (t > 5) { out = 1; } else { out = 2; }      // tainted, unmarked
  for (k = 0; k < 4; k++) {
    if (k > 2) { out = out + 1; }                // public, stays public
  }
  return out;
}
|}

let count_secret prog =
  List.fold_left
    (fun acc f ->
      block_fold
        (fun acc stmt ->
          match stmt with
          | If { secret = true; _ } -> acc + 1
          | If _ | While _ | For _ | Assign _ | Store _ | Expr _ | Return _ -> acc)
        acc f.body)
    0 prog.funcs

let test_auto_annotate () =
  let violations =
    List.filter
      (function Secrecy.Unmarked_branch _ -> true | _ -> false)
      (Secrecy.analyze unannotated)
  in
  Alcotest.(check int) "one unmarked branch" 1 (List.length violations);
  let fixed = Secrecy.auto_annotate unannotated in
  Alcotest.(check int) "exactly the tainted branch marked" 1 (count_secret fixed);
  let clean =
    List.filter
      (function Secrecy.Unmarked_branch _ -> true | _ -> false)
      (Secrecy.analyze fixed)
  in
  Alcotest.(check int) "clean after annotation" 0 (List.length clean);
  (* annotated program runs correctly and leak-free under SeMPE *)
  List.iter
    (fun s ->
      let built = Harness.build Scheme.Sempe fixed in
      let outcome = Harness.run ~globals:[ ("s", s) ] built in
      let expected = if (s * 2) + 1 > 5 then 1 + 1 else 2 + 1 in
      Alcotest.(check int)
        (Printf.sprintf "result s=%d" s)
        expected
        (Harness.return_value outcome))
    [ 0; 1; 5 ]

let test_auto_annotate_rejects_secret_loop () =
  let bad =
    Parser.program
      {|
global s;
@secret s;
func main() locals(k, t) {
  t = 0;
  for (k = 0; k < s; k++) { t = t + 1; }
  return t;
}
|}
  in
  Alcotest.(check bool) "raises on secret loop" true
    (match Secrecy.auto_annotate bad with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---- ITTAGE ---- *)

let test_ittage_learns_monomorphic () =
  let t = Sempe_bpred.Ittage.create () in
  Alcotest.(check (option int)) "cold" None (Sempe_bpred.Ittage.predict t ~pc:5);
  for _ = 1 to 20 do
    Sempe_bpred.Ittage.update t ~pc:5 ~target:99
  done;
  Alcotest.(check (option int)) "learned" (Some 99)
    (Sempe_bpred.Ittage.predict t ~pc:5)

let test_ittage_history_correlated () =
  (* Target of jump B alternates, correlated with the previous target of
     jump A; with path history ITTAGE disambiguates after warmup. *)
  let t = Sempe_bpred.Ittage.create () in
  let correct = ref 0 and total = ref 0 in
  for round = 1 to 400 do
    let a_target = if round land 1 = 0 then 10 else 20 in
    Sempe_bpred.Ittage.update t ~pc:100 ~target:a_target;
    let b_target = if a_target = 10 then 30 else 40 in
    if round > 200 then begin
      incr total;
      if Sempe_bpred.Ittage.predict t ~pc:200 = Some b_target then incr correct
    end;
    Sempe_bpred.Ittage.update t ~pc:200 ~target:b_target
  done;
  let acc = float_of_int !correct /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "correlated targets learned (%.2f)" acc)
    true (acc > 0.8)

let test_ittage_reset () =
  let t = Sempe_bpred.Ittage.create () in
  Sempe_bpred.Ittage.update t ~pc:1 ~target:7;
  let s = Sempe_bpred.Ittage.signature t in
  Sempe_bpred.Ittage.reset t;
  Alcotest.(check bool) "state cleared" true (Sempe_bpred.Ittage.signature t <> s);
  Alcotest.(check (option int)) "cold again" None (Sempe_bpred.Ittage.predict t ~pc:1)

(* ---- indirect jumps end to end ---- *)

let test_jr_executes () =
  let module B = Sempe_isa.Builder in
  (* two-pass build: first discover t1's index, then bake it into li *)
  let build t1_index =
    let b = B.create () in
    B.bind b "entry";
    B.li b 12 t1_index;
    B.jr b 12;
    B.bind b "t0";
    B.li b 10 111;
    B.halt b;
    B.bind b "t1";
    B.li b 10 222;
    B.halt b;
    B.assemble b ~entry:"entry" ~data_words:0
  in
  let t1 = Sempe_isa.Program.find_label (build 0) "t1" in
  let prog = build t1 in
  let config = { Sempe_core.Exec.default_config with Sempe_core.Exec.mem_words = 64 } in
  let res = Sempe_core.Exec.run ~config prog in
  Alcotest.(check int) "landed at computed target" 222 res.Sempe_core.Exec.regs.(10)

let test_jr_timing_learns () =
  (* Repeated monomorphic indirect jumps: ITTAGE removes the redirect after
     warmup, so cycles grow sub-linearly versus a polymorphic target. *)
  let uop target =
    let u = Sempe_pipeline.Uop.make () in
    u.Sempe_pipeline.Uop.pc <- 40;
    u.Sempe_pipeline.Uop.cls <- Sempe_isa.Instr.Cls_jump;
    u.Sempe_pipeline.Uop.ctl <- Sempe_pipeline.Uop.Ctl_indirect;
    u.Sempe_pipeline.Uop.target <- target;
    Sempe_pipeline.Uop.Commit u
  in
  let run targets =
    let t = Sempe_pipeline.Timing.create () in
    List.iter (fun tg -> Sempe_pipeline.Timing.feed t (uop tg)) targets;
    (Sempe_pipeline.Timing.report t).Sempe_pipeline.Timing.cycles
  in
  let mono = run (List.init 300 (fun _ -> 50)) in
  let rng = Sempe_util.Rng.create 5 in
  let poly = run (List.init 300 (fun _ -> 50 + Sempe_util.Rng.int rng 8)) in
  Alcotest.(check bool)
    (Printf.sprintf "monomorphic faster (%d < %d)" mono poly)
    true (mono < poly)

let tests =
  [
    Alcotest.test_case "auto annotate" `Quick test_auto_annotate;
    Alcotest.test_case "auto annotate secret loop" `Quick test_auto_annotate_rejects_secret_loop;
    Alcotest.test_case "ittage monomorphic" `Quick test_ittage_learns_monomorphic;
    Alcotest.test_case "ittage history" `Quick test_ittage_history_correlated;
    Alcotest.test_case "ittage reset" `Quick test_ittage_reset;
    Alcotest.test_case "jr executes" `Quick test_jr_executes;
    Alcotest.test_case "jr timing learns" `Quick test_jr_timing_learns;
  ]

(* ---- properties over random programs ---- *)

let prop_auto_annotate_roundtrip =
  (* Strip the annotations from a random program, re-derive them from taint,
     and the result must be analysis-clean and compute reference semantics
     under SeMPE. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"auto_annotate recovers protection" ~count:40
       Test_random_progs.arbitrary_program
       (fun (prog, fill) ->
         let stripped = Sempe_lang.Shadow.strip_secret_marks prog in
         let annotated = Secrecy.auto_annotate stripped in
         let clean =
           List.for_all
             (function
               | Secrecy.Unmarked_branch _ -> false
               | Secrecy.Secret_loop _ | Secrecy.Secret_index _
               | Secrecy.Useless_annotation _ | Secrecy.Potential_exception _ ->
                 true)
             (Secrecy.analyze annotated)
         in
         clean
         && List.for_all
              (fun secrets ->
                let reference =
                  let st = Sempe_lang.Eval.init prog in
                  List.iter (fun (n, v) -> Sempe_lang.Eval.set_global st n v) secrets;
                  Sempe_lang.Eval.set_array st "arr" (Array.of_list fill);
                  Sempe_lang.Eval.run st
                in
                let built = Harness.build Scheme.Sempe annotated in
                let o =
                  Harness.run ~globals:secrets
                    ~arrays:[ ("arr", Array.of_list fill) ]
                    ~mem_words:(1 lsl 14) built
                in
                Harness.return_value o = reference)
              [ [ ("s0", 0); ("s1", 1) ]; [ ("s0", 1); ("s1", 0) ] ]))

let tests = tests @ [ prop_auto_annotate_roundtrip ]
