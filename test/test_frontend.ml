(* Front ends: the language parser/lexer and the ISA text assembler. Both
   must round-trip their printers, and parsed programs must execute like
   hand-constructed ASTs. *)

open Sempe_lang
module Asm = Sempe_isa.Asm
module Program = Sempe_isa.Program

let source =
  {|
// modular exponentiation, concrete syntax
global base;
global modulus;
array ebits[8];
@secret base;

func modexp() locals(r, k) {
  r = 1;
  for (k = 0; k < 8; k++) {
    r = r * r % modulus;
    @secret if (ebits[k] == 1) { r = r * base % modulus; }
  }
  return r;
}

func main() { return modexp(); }
|}

let test_parse_and_eval () =
  let prog = Parser.program source in
  let st = Eval.init prog in
  Eval.set_global st "base" 3;
  Eval.set_global st "modulus" 1000;
  Eval.set_array st "ebits" [| 0; 0; 0; 0; 0; 1; 0; 1 |];
  (* exponent 0b00000101 = 5; 3^5 mod 1000 = 243 *)
  Alcotest.(check int) "3^5 mod 1000" 243 (Eval.run st)

let test_parse_roundtrip_fixed () =
  let prog = Parser.program source in
  let printed = Format.asprintf "%a" Ast.pp_program prog in
  let reparsed = Parser.program printed in
  Alcotest.(check bool) "print/parse roundtrip" true (prog = reparsed)

let prop_parse_roundtrip_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"print/parse roundtrip on random programs" ~count:200
       Test_random_progs.arbitrary_program
       (fun (prog, _) ->
         let printed = Format.asprintf "%a" Ast.pp_program prog in
         Parser.program printed = prog))

let test_parse_precedence () =
  Alcotest.(check bool) "mul binds tighter"
    true
    (Parser.expr "1 + 2 * 3"
     = Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)));
  Alcotest.(check bool) "comparison below arithmetic" true
    (Parser.expr "a + 1 < b * 2"
     = Ast.Binop
         ( Ast.Lt,
           Ast.Binop (Ast.Add, Ast.Var "a", Ast.Int 1),
           Ast.Binop (Ast.Mul, Ast.Var "b", Ast.Int 2) ));
  Alcotest.(check bool) "logical loosest" true
    (Parser.expr "a == 1 && b == 2 || c == 3"
     = Ast.Binop
         ( Ast.Lor,
           Ast.Binop
             ( Ast.Land,
               Ast.Binop (Ast.Eq, Ast.Var "a", Ast.Int 1),
               Ast.Binop (Ast.Eq, Ast.Var "b", Ast.Int 2) ),
           Ast.Binop (Ast.Eq, Ast.Var "c", Ast.Int 3) ))

let test_parse_errors () =
  let expect_error src =
    match Parser.program src with
    | _ -> Alcotest.fail ("accepted: " ^ src)
    | exception Parser.Error _ -> ()
    | exception Invalid_argument _ -> ()
  in
  expect_error "func main() { return 1 }";          (* missing semicolon *)
  expect_error "func main() { x = ; }";             (* missing expression *)
  expect_error "func main() { for (i = 0; j < 3; i++) {} return 0; }";
  expect_error "array a[0]; func main() { return 0; }";
  expect_error "func main() { return undeclared_fn(); }"

(* ---- ISA assembler ---- *)

let asm_source =
  {|
# doubles r10 until it exceeds 100, through a secure branch once
.data 4
entry:
    li r10, 3
    li r11, 1
loop:
    add r10, r10, r10
    blt r10, 100, loop   # wait: blt needs registers
    halt
|}

let test_asm_basic () =
  (* register-register branch form *)
  let src =
    ".data 2\n\
     entry:\n\
     \tli r10, 3\n\
     \tli r11, 100\n\
     loop:\n\
     \tadd r10, r10, r10\n\
     \tslt r12, r10, r11\n\
     \tbne r12, r0, loop\n\
     \tst r10, 0(gp)\n\
     \thalt\n"
  in
  ignore asm_source;
  let prog = Asm.parse src in
  Alcotest.(check int) "data words" 2 prog.Program.data_words;
  let config = { Sempe_core.Exec.default_config with Sempe_core.Exec.mem_words = 64 } in
  let res = Sempe_core.Exec.run ~config prog in
  Alcotest.(check int) "doubling result" 192
    (Sempe_core.Memory.get res.Sempe_core.Exec.memory 0)

let test_asm_secure_branch () =
  let src =
    "entry:\n\
     \tli r10, 1\n\
     \tsbne r10, r0, t\n\
     \tli r11, 5\n\
     \tjmp j\n\
     t:\n\
     \tli r11, 9\n\
     j:\n\
     \teosjmp\n\
     \thalt\n"
  in
  let prog = Asm.parse src in
  Alcotest.(check int) "one secure branch" 1 (Program.count_secure_branches prog);
  let config = { Sempe_core.Exec.default_config with Sempe_core.Exec.mem_words = 64 } in
  let res = Sempe_core.Exec.run ~config prog in
  Alcotest.(check int) "taken value" 9 res.Sempe_core.Exec.regs.(11);
  Alcotest.(check int) "both paths ran" 1 res.Sempe_core.Exec.dyn_sjmps

let test_asm_roundtrip_compiled () =
  (* Disassemble a compiled workload and re-assemble it. *)
  List.iter
    (fun (k : Sempe_workloads.Kernels.t) ->
      let spec = { Sempe_workloads.Microbench.kernel = k; width = 2; iters = 1 } in
      let src = Sempe_workloads.Microbench.program ~ct:false spec in
      let built = Sempe_workloads.Harness.build Sempe_core.Scheme.Sempe src in
      let prog = built.Sempe_workloads.Harness.prog in
      let reparsed = Asm.parse (Asm.print prog) in
      Alcotest.(check bool)
        (k.Sempe_workloads.Kernels.name ^ " code image")
        true
        (prog.Program.code = reparsed.Program.code);
      Alcotest.(check int) "entry" prog.Program.entry reparsed.Program.entry;
      Alcotest.(check int) "data" prog.Program.data_words reparsed.Program.data_words)
    [ Sempe_workloads.Kernels.fibonacci; Sempe_workloads.Kernels.quicksort ]

let test_asm_errors () =
  let expect_error src =
    match Asm.parse src with
    | _ -> Alcotest.fail ("accepted: " ^ src)
    | exception Asm.Error _ -> ()
    | exception Invalid_argument _ -> ()
  in
  expect_error "entry:\n\tfoo r1, r2\n";
  expect_error "entry:\n\tjmp nowhere\n";
  expect_error "entry:\n\tli r99, 1\n";
  expect_error "entry:\n\tld r1, r2\n"

let tests =
  [
    Alcotest.test_case "parse and eval" `Quick test_parse_and_eval;
    Alcotest.test_case "parse roundtrip fixed" `Quick test_parse_roundtrip_fixed;
    prop_parse_roundtrip_random;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "asm basic" `Quick test_asm_basic;
    Alcotest.test_case "asm secure branch" `Quick test_asm_secure_branch;
    Alcotest.test_case "asm roundtrip compiled" `Quick test_asm_roundtrip_compiled;
    Alcotest.test_case "asm errors" `Quick test_asm_errors;
  ]
