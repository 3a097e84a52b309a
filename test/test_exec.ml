(* Architectural tests of the SeMPE execution engine on hand-built
   programs: both-path execution, register merge by outcome, nesting,
   backward compatibility, and memory (non-)snapshotting. *)

open Sempe_isa
module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Uop = Sempe_pipeline.Uop

let r10 = 10
let r11 = 11
let r12 = 12

(* if (secret) r10 = 200 else r10 = 100, via a secure branch. *)
let branch_program ~secret =
  let b = Builder.create () in
  Builder.bind b "entry";
  Builder.li b r11 secret;
  Builder.br b ~secure:true Instr.Ne r11 Reg.zero "t_path";
  Builder.li b r10 100;
  Builder.jmp b "join";
  Builder.bind b "t_path";
  Builder.li b r10 200;
  Builder.bind b "join";
  Builder.eosjmp b;
  Builder.halt b;
  Builder.assemble b ~entry:"entry" ~data_words:0

let run ?(support = Exec.Sempe_hw) ?sink prog =
  let config = { Exec.default_config with Exec.support; mem_words = 4096 } in
  Exec.run ~config ?sink prog

let test_both_paths_commit () =
  (* Under SeMPE both path bodies commit: the dynamic instruction count is
     the same for either secret. *)
  let res1 = run (branch_program ~secret:1) in
  let res0 = run (branch_program ~secret:0) in
  Alcotest.(check int) "same dynamic count" res1.Exec.dyn_instrs res0.Exec.dyn_instrs;
  Alcotest.(check int) "taken selects T value" 200 res1.Exec.regs.(r10);
  Alcotest.(check int) "not-taken selects NT value" 100 res0.Exec.regs.(r10);
  Alcotest.(check int) "one sJMP" 1 res1.Exec.dyn_sjmps

let test_legacy_ignores_prefix () =
  (* The same binary on legacy hardware takes only the true path. *)
  let res1 = run ~support:Exec.Legacy (branch_program ~secret:1) in
  let res0 = run ~support:Exec.Legacy (branch_program ~secret:0) in
  Alcotest.(check int) "taken value" 200 res1.Exec.regs.(r10);
  Alcotest.(check int) "not-taken value" 100 res0.Exec.regs.(r10);
  Alcotest.(check bool) "legacy executes fewer instructions"
    true (res1.Exec.dyn_instrs < (run (branch_program ~secret:1)).Exec.dyn_instrs);
  Alcotest.(check int) "no sJMPs on legacy" 0 res1.Exec.dyn_sjmps

let test_pc_trace_secret_independent () =
  (* The committed-PC stream must be identical for both secrets. *)
  let trace secret =
    let pcs = ref [] in
    let sink = function
      | Uop.Commit u -> pcs := u.Uop.pc :: !pcs
      | Uop.Drain _ -> ()
    in
    ignore (run ~sink (branch_program ~secret));
    List.rev !pcs
  in
  Alcotest.(check (list int)) "identical pc traces" (trace 1) (trace 0)

(* Nested secure branches:
   if (a) { r10 += 1; if (b) r11 = 5 else r11 = 6; r12 = r11 * 10 }
   else   { r10 += 2 } *)
let nested_program ~a ~b =
  let bl = Builder.create () in
  Builder.bind bl "entry";
  Builder.li bl 20 a;
  Builder.li bl 21 b;
  Builder.li bl r10 0;
  Builder.li bl r11 0;
  Builder.li bl r12 0;
  Builder.br bl ~secure:true Instr.Ne 20 Reg.zero "a_true";
  (* a false (NT path of outer) *)
  Builder.alui bl Instr.Add r10 r10 2;
  Builder.jmp bl "outer_join";
  Builder.bind bl "a_true";
  Builder.alui bl Instr.Add r10 r10 1;
  Builder.br bl ~secure:true Instr.Ne 21 Reg.zero "b_true";
  Builder.li bl r11 6;
  Builder.jmp bl "inner_join";
  Builder.bind bl "b_true";
  Builder.li bl r11 5;
  Builder.bind bl "inner_join";
  Builder.eosjmp bl;
  Builder.alui bl Instr.Mul r12 r11 10;
  Builder.bind bl "outer_join";
  Builder.eosjmp bl;
  Builder.halt bl;
  Builder.assemble bl ~entry:"entry" ~data_words:0

let expected_nested ~a ~b =
  if a <> 0 then
    if b <> 0 then (1, 5, 50) else (1, 6, 60)
  else (2, 0, 0)

let test_nested () =
  List.iter
    (fun (a, b) ->
      let res = run (nested_program ~a ~b) in
      let e10, e11, e12 = expected_nested ~a ~b in
      let got = (res.Exec.regs.(r10), res.Exec.regs.(r11), res.Exec.regs.(r12)) in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "a=%d b=%d" a b)
        (e10, e11, e12) got;
      let expected_nesting = if a = 0 && b = 0 then 2 else 2 in
      Alcotest.(check int) "max nesting" expected_nesting res.Exec.max_nesting)
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_nested_trace_independent () =
  let trace a b =
    let pcs = ref [] in
    let sink = function
      | Uop.Commit u -> pcs := u.Uop.pc :: !pcs
      | Uop.Drain _ -> ()
    in
    ignore (run ~sink (nested_program ~a ~b));
    List.rev !pcs
  in
  let t00 = trace 0 0 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (list int))
        (Printf.sprintf "trace(%d,%d) = trace(0,0)" a b)
        t00 (trace a b))
    [ (0, 1); (1, 0); (1, 1) ]

(* Memory is not snapshotted: a store on the wrong path persists unless the
   program privatizes it. This is the behavior that motivates the
   ShadowMemory pass. *)
let unprivatized_store_program ~secret =
  let b = Builder.create () in
  Builder.bind b "entry";
  Builder.li b r11 secret;
  Builder.li b r10 42;
  Builder.st b r10 Reg.gp 0;
  Builder.br b ~secure:true Instr.Ne r11 Reg.zero "t_path";
  Builder.li b r12 7;
  Builder.st b r12 Reg.gp 0;
  Builder.jmp b "join";
  Builder.bind b "t_path";
  Builder.bind b "join" |> ignore;
  Builder.eosjmp b;
  Builder.ld b r10 Reg.gp 0;
  Builder.halt b;
  Builder.assemble b ~entry:"entry" ~data_words:1

let test_memory_not_snapshotted () =
  (* secret=1: NT path (the wrong path) stores 7; memory keeps it. *)
  let res = run (unprivatized_store_program ~secret:1) in
  Alcotest.(check int) "wrong-path store leaks through" 7 res.Exec.regs.(r10)

let test_eosjmp_outside_region_is_nop () =
  let b = Builder.create () in
  Builder.bind b "entry";
  Builder.li b r10 3;
  Builder.eosjmp b;
  Builder.alui b Instr.Add r10 r10 4;
  Builder.halt b;
  let prog = Builder.assemble b ~entry:"entry" ~data_words:0 in
  let res = run prog in
  Alcotest.(check int) "fell through" 7 res.Exec.regs.(r10)

(* ---- indirect-jump targets honor forgiving_oob ---- *)

(* entry: li r12 <target>; jr r12; t0: li r10 111; halt; t1: li r10 222; halt.
   Built twice: once to learn the layout, then with the wild value baked. *)
let indirect_program target_value =
  let b = Builder.create () in
  Builder.bind b "entry";
  Builder.li b r12 target_value;
  Builder.jr b r12;
  Builder.bind b "t0";
  Builder.li b r10 111;
  Builder.halt b;
  Builder.bind b "t1";
  Builder.li b r10 222;
  Builder.halt b;
  Builder.assemble b ~entry:"entry" ~data_words:0

let test_jr_oob_forgiving () =
  let probe = indirect_program 0 in
  let t1 = Program.find_label probe "t1" in
  let len = Program.length probe in
  (* A wild positive target wraps into the program deterministically. *)
  let res = run (indirect_program (len + t1)) in
  Alcotest.(check int) "positive OOB target wraps mod length" 222 res.Exec.regs.(r10);
  (* So does a wild negative one ((t mod len) + len) mod len). *)
  let res = run (indirect_program (t1 - (3 * len))) in
  Alcotest.(check int) "negative OOB target wraps mod length" 222 res.Exec.regs.(r10)

let test_jr_oob_strict () =
  let probe = indirect_program 0 in
  let len = Program.length probe in
  let wild = len + Program.find_label probe "t1" in
  let config =
    { Exec.default_config with Exec.mem_words = 4096; forgiving_oob = false }
  in
  (* the jr sits at pc 1 (entry: li at 0, jr at 1) *)
  Alcotest.check_raises "strict mode traps on the wild target"
    (Exec.Out_of_bounds { pc = 1; addr = wild })
    (fun () -> ignore (Exec.run ~config (indirect_program wild)))

let test_ret_oob () =
  let build target_value =
    let b = Builder.create () in
    Builder.bind b "entry";
    Builder.li b Reg.ra target_value;
    Builder.ret b;
    Builder.bind b "t0";
    Builder.li b r10 111;
    Builder.halt b;
    Builder.bind b "t1";
    Builder.li b r10 222;
    Builder.halt b;
    Builder.assemble b ~entry:"entry" ~data_words:0
  in
  let probe = build 0 in
  let t1 = Program.find_label probe "t1" in
  let len = Program.length probe in
  let wild = (2 * len) + t1 in
  let res = run (build wild) in
  Alcotest.(check int) "forgiving ret wraps mod length" 222 res.Exec.regs.(r10);
  let config =
    { Exec.default_config with Exec.mem_words = 4096; forgiving_oob = false }
  in
  Alcotest.check_raises "strict ret traps"
    (Exec.Out_of_bounds { pc = 1; addr = wild })
    (fun () -> ignore (Exec.run ~config (build wild)))

(* ---- initial sp points at the last valid word ---- *)

let test_sp_init_no_alias () =
  (* Historically sp started at mem_words — itself out of bounds — so the
     first access through sp was clamped under forgiving mode: stores
     through sp were dropped, loads returned 0, and the clamped cache
     address aliased global data at word 0. Pin the fixed behavior: the
     top-of-stack slot is a real, usable word distinct from word 0. *)
  let mw = 256 in
  let b = Builder.create () in
  Builder.bind b "entry";
  Builder.li b r10 7;
  Builder.st b r10 Reg.sp 0;
  Builder.ld b r11 Reg.gp 0;
  Builder.ld b r12 Reg.sp 0;
  Builder.halt b;
  let prog = Builder.assemble b ~entry:"entry" ~data_words:1 in
  let config = { Exec.default_config with Exec.mem_words = mw } in
  let res = Exec.run ~config ~init_mem:(fun m -> Memory.set m 0 42) prog in
  Alcotest.(check int) "sp starts at the last valid word" (mw - 1) res.Exec.regs.(Reg.sp);
  Alcotest.(check int) "store through sp lands in bounds" 7
    (Memory.get res.Exec.memory (mw - 1));
  Alcotest.(check int) "load through sp reads it back (old: dropped to 0)" 7
    res.Exec.regs.(r12);
  Alcotest.(check int) "global word 0 untouched" 42 res.Exec.regs.(r11);
  Alcotest.(check int) "memory image keeps the global" 42
    (Memory.get res.Exec.memory 0)

let test_overflow () =
  (* 31 nested secure branches exceed the 30-entry jbTable. *)
  let b = Builder.create () in
  Builder.bind b "entry";
  Builder.li b r11 1;
  let joins = ref [] in
  for i = 0 to 30 do
    let t = Printf.sprintf "t%d" i and j = Printf.sprintf "j%d" i in
    Builder.br b ~secure:true Instr.Ne r11 Reg.zero t;
    Builder.bind b t;
    joins := j :: !joins
  done;
  List.iter
    (fun j ->
      Builder.bind b j;
      Builder.eosjmp b)
    !joins;
  Builder.halt b;
  let prog = Builder.assemble b ~entry:"entry" ~data_words:0 in
  Alcotest.check_raises "jbTable overflow" Sempe_core.Jbtable.Overflow (fun () ->
      ignore (run prog))

let tests =
  [
    Alcotest.test_case "both paths commit" `Quick test_both_paths_commit;
    Alcotest.test_case "legacy ignores prefix" `Quick test_legacy_ignores_prefix;
    Alcotest.test_case "pc trace secret independent" `Quick test_pc_trace_secret_independent;
    Alcotest.test_case "nested merge" `Quick test_nested;
    Alcotest.test_case "nested trace independent" `Quick test_nested_trace_independent;
    Alcotest.test_case "memory not snapshotted" `Quick test_memory_not_snapshotted;
    Alcotest.test_case "eosjmp outside region" `Quick test_eosjmp_outside_region_is_nop;
    Alcotest.test_case "jr oob forgiving" `Quick test_jr_oob_forgiving;
    Alcotest.test_case "jr oob strict" `Quick test_jr_oob_strict;
    Alcotest.test_case "ret oob" `Quick test_ret_oob;
    Alcotest.test_case "sp init no alias" `Quick test_sp_init_no_alias;
    Alcotest.test_case "jbtable overflow" `Quick test_overflow;
  ]
