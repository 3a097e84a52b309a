(* Differential tests: every program runs through the reference evaluator
   and through compile + ISA execution (legacy and, when privatized, SeMPE
   hardware); results must agree. *)

open Sempe_lang
open Ast
module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory

let compile_and_run ?(support = Exec.Legacy) ?(globals = []) ?(arrays = [])
    (prog : Ast.program) =
  let compiled, layout = Codegen.compile prog in
  let init_mem mem =
    List.iter
      (fun (name, value) -> Memory.set mem (Codegen.scalar_offset layout name) value)
      globals;
    List.iter
      (fun (name, values) ->
        let off, size = Codegen.array_slice layout name in
        assert (Array.length values = size);
        Memory.blit_array values 0 mem off size)
      arrays
  in
  let config = { Exec.default_config with Exec.support; mem_words = 1 lsl 16 } in
  let res = Exec.run ~config ~init_mem compiled in
  (res, layout)

let reference ?(globals = []) ?(arrays = []) prog =
  let st = Eval.init prog in
  List.iter (fun (name, value) -> Eval.set_global st name value) globals;
  List.iter (fun (name, values) -> Eval.set_array st name values) arrays;
  Eval.run st

let rv (res : Exec.result) = res.Exec.regs.(Sempe_isa.Reg.rv)

(* --- programs --- *)

let arith_prog =
  {
    funcs =
      [
        {
          fname = "main";
          params = [];
          locals = [ "x"; "y" ];
          body =
            [
              assign "x" (i 7 *: i 6 -: i 2);
              assign "y" (v "x" /: i 4 +: (v "x" %: i 5));
              ret ((v "x" *: i 100) +: v "y");
            ];
        };
      ];
    globals = [];
    arrays = [];
    secrets = [];
    main = "main";
  }

let fact_prog =
  {
    funcs =
      [
        {
          fname = "fact";
          params = [ "n" ];
          locals = [];
          body =
            [
              if_ (v "n" <=: i 1) [ ret (i 1) ] [];
              ret (v "n" *: call "fact" [ v "n" -: i 1 ]);
            ];
        };
        { fname = "main"; params = []; locals = []; body = [ ret (call "fact" [ i 10 ]) ] };
      ];
    globals = [];
    arrays = [];
    secrets = [];
    main = "main";
  }

let loops_prog =
  {
    funcs =
      [
        {
          fname = "main";
          params = [];
          locals = [ "acc"; "k"; "w" ];
          body =
            [
              assign "acc" (i 0);
              for_ "k" (i 0) (i 20)
                [ assign "acc" (v "acc" +: (v "k" *: v "k")) ];
              assign "w" (i 1);
              while_ (v "w" <: i 1000) [ assign "w" (v "w" *: i 3) ];
              ret (v "acc" +: v "w");
            ];
        };
      ];
    globals = [];
    arrays = [];
    secrets = [];
    main = "main";
  }

let array_prog =
  {
    funcs =
      [
        {
          fname = "main";
          params = [];
          locals = [ "k"; "sum" ];
          body =
            [
              for_ "k" (i 0) (i 16) [ store "buf" (v "k") (v "k" *: i 3 +: i 1) ];
              assign "sum" (i 0);
              for_ "k" (i 0) (i 16)
                [ assign "sum" (v "sum" +: idx "buf" (v "k")) ];
              ret (v "sum");
            ];
        };
      ];
    globals = [];
    arrays = [ { aname = "buf"; size = 16; scratch = false } ];
    secrets = [];
    main = "main";
  }

(* Secret-branch program: nested chain mixing scalars and public control
   flow inside paths. *)
let secret_prog =
  {
    funcs =
      [
        {
          fname = "main";
          params = [];
          locals = [ "acc"; "k" ];
          body =
            [
              assign "acc" (i 100);
              if_ ~secret:true (v "s1" >: i 0)
                [
                  for_ "k" (i 0) (i 5) [ assign "acc" (v "acc" +: v "k") ];
                  if_ ~secret:true (v "s2" =: i 3)
                    [ assign "acc" (v "acc" *: i 2) ]
                    [ assign "acc" (v "acc" -: i 7) ];
                ]
                [ assign "acc" (v "acc" *: i 10) ];
              ret (v "acc");
            ];
        };
      ];
    globals = [ "s1"; "s2" ];
    arrays = [];
    secrets = [ "s1"; "s2" ];
    main = "main";
  }

let lops_prog =
  {
    funcs =
      [
        {
          fname = "main";
          params = [];
          locals = [ "a"; "b" ];
          body =
            [
              assign "a" (i 3);
              assign "b" (i 0);
              ret
                ((v "a" &&: v "b")
                +: ((v "a" ||: v "b") *: i 10)
                +: (Unop (Lnot, v "b") *: i 100)
                +: (Unop (Neg, v "a") *: i 1000)
                +: (Select (v "a", i 5, i 9) *: i 10000));
            ];
        };
      ];
    globals = [];
    arrays = [];
    secrets = [];
    main = "main";
  }

let check_same name ?(globals = []) ?(arrays = []) prog =
  let expected = reference ~globals ~arrays prog in
  let res, _ = compile_and_run ~globals ~arrays prog in
  Alcotest.(check int) (name ^ " (legacy)") expected (rv res)

let test_basic () =
  check_same "arith" arith_prog;
  check_same "factorial" fact_prog;
  check_same "loops" loops_prog;
  check_same "arrays" array_prog;
  check_same "logical/select ops" lops_prog

let test_secret_all_modes () =
  (* For every secret assignment: reference, baseline (stripped), privatized
     on legacy, and privatized on SeMPE must all agree. *)
  List.iter
    (fun (s1, s2) ->
      let globals = [ ("s1", s1); ("s2", s2) ] in
      let expected = reference ~globals secret_prog in
      let baseline = Shadow.strip_secret_marks secret_prog in
      let res_base, _ = compile_and_run ~globals baseline in
      Alcotest.(check int) "baseline" expected (rv res_base);
      let priv = Shadow.privatize secret_prog in
      let res_legacy, _ = compile_and_run ~support:Exec.Legacy ~globals priv in
      Alcotest.(check int) "privatized/legacy" expected (rv res_legacy);
      let res_sempe, _ = compile_and_run ~support:Exec.Sempe_hw ~globals priv in
      Alcotest.(check int) "privatized/sempe" expected (rv res_sempe))
    [ (0, 0); (0, 3); (1, 0); (1, 3); (5, 2) ]

let test_unprivatized_sempe_wrong () =
  (* Without privatization, SeMPE both-path execution corrupts memory-held
     locals: the result differs for at least one secret. This is the bug the
     ShadowMemory pass exists to fix. *)
  let differs =
    List.exists
      (fun (s1, s2) ->
        let globals = [ ("s1", s1); ("s2", s2) ] in
        let expected = reference ~globals secret_prog in
        let res, _ = compile_and_run ~support:Exec.Sempe_hw ~globals secret_prog in
        rv res <> expected)
      [ (0, 0); (0, 3); (1, 0); (1, 3) ]
  in
  Alcotest.(check bool) "unprivatized SeMPE corrupts state" true differs

let test_secret_trace_independence () =
  (* Committed-PC trace of the privatized program under SeMPE must not
     depend on the secrets. *)
  let priv = Shadow.privatize secret_prog in
  let compiled, layout = Codegen.compile priv in
  let trace s1 s2 =
    let pcs = ref [] in
    let sink = function
      | Sempe_pipeline.Uop.Commit u -> pcs := u.Sempe_pipeline.Uop.pc :: !pcs
      | Sempe_pipeline.Uop.Drain _ -> ()
    in
    let init_mem mem =
      Memory.set mem (Codegen.scalar_offset layout "s1") s1;
      Memory.set mem (Codegen.scalar_offset layout "s2") s2
    in
    let config =
      { Exec.default_config with Exec.support = Exec.Sempe_hw; mem_words = 1 lsl 16 }
    in
    ignore (Exec.run ~config ~init_mem ~sink compiled);
    List.rev !pcs
  in
  let t00 = trace 0 0 in
  List.iter
    (fun (s1, s2) ->
      Alcotest.(check (list int))
        (Printf.sprintf "trace(%d,%d)" s1 s2)
        t00 (trace s1 s2))
    [ (0, 3); (1, 0); (1, 3); (9, 9) ]

let test_secrecy_analysis () =
  let violations = Secrecy.analyze secret_prog in
  Alcotest.(check int) "annotated program is clean" 0 (List.length violations);
  let bad = Shadow.strip_secret_marks secret_prog in
  let unmarked =
    List.filter
      (function Secrecy.Unmarked_branch _ -> true | _ -> false)
      (Secrecy.analyze bad)
  in
  Alcotest.(check int) "stripped program has unmarked branches" 2
    (List.length unmarked)

let tests =
  [
    Alcotest.test_case "compile vs reference" `Quick test_basic;
    Alcotest.test_case "secret program all modes" `Quick test_secret_all_modes;
    Alcotest.test_case "unprivatized sempe corrupts" `Quick test_unprivatized_sempe_wrong;
    Alcotest.test_case "privatized trace independence" `Quick test_secret_trace_independence;
    Alcotest.test_case "secrecy analysis" `Quick test_secrecy_analysis;
  ]
