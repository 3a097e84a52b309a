(* Property-based differential testing of the whole toolchain: random
   programs with secret branches run through

   - the reference AST evaluator,
   - compile + legacy execution (stripped),
   - ShadowMemory privatization + SeMPE hardware,
   - ShadowMemory privatization + legacy hardware (backward compat),
   - the CTE / Raccoon / MTO softpath transforms,

   and all six must agree on the return value, all globals and the array
   contents for every secret assignment. A second property checks that the
   SeMPE committed-PC trace is identical across secrets.

   Generator constraints mirror what the transforms require of real code:
   loop bounds are constants, array indexes are masked loop/public
   variables, secret-branch arms assign only data variables. *)

open Sempe_lang.Ast
module Eval = Sempe_lang.Eval
module Shadow = Sempe_lang.Shadow
module Codegen = Sempe_lang.Codegen
module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Scheme = Sempe_core.Scheme
module Harness = Sempe_workloads.Harness
module G = QCheck.Gen

let data_vars = [ "x0"; "x1"; "x2" ]
let index_vars = [ "i0"; "i1" ]
let globals = [ "g0"; "g1" ]
let secret_vars = [ "s0"; "s1" ]
let array_name = "arr"
let array_size = 16

(* ---- expression generator ---- *)

let gen_leaf ~secret_ok =
  let vars = data_vars @ index_vars @ globals @ if secret_ok then secret_vars else [] in
  G.oneof
    [
      G.map (fun n -> Int n) (G.int_range (-50) 50);
      G.map (fun v_ -> Var v_) (G.oneofl vars);
    ]

let gen_index_expr =
  (* always in bounds: (public variable or constant) & 15 *)
  G.map
    (fun e -> Binop (Band, e, Int (array_size - 1)))
    (G.oneof
       [
         G.map (fun v_ -> Var v_) (G.oneofl index_vars);
         G.map (fun n -> Int (abs n)) (G.int_range 0 100);
       ])

let gen_binop =
  G.oneofl [ Add; Sub; Mul; Div; Rem; Band; Bor; Bxor; Lt; Le; Gt; Ge; Eq; Ne; Land; Lor ]

let rec gen_expr ~secret_ok depth =
  if depth = 0 then gen_leaf ~secret_ok
  else
    G.frequency
      [
        (2, gen_leaf ~secret_ok);
        ( 3,
          G.map3
            (fun op a b -> Binop (op, a, b))
            gen_binop
            (gen_expr ~secret_ok (depth - 1))
            (gen_expr ~secret_ok (depth - 1)) );
        (1, G.map (fun e -> Unop (Neg, e)) (gen_expr ~secret_ok (depth - 1)));
        (1, G.map (fun e -> Unop (Lnot, e)) (gen_expr ~secret_ok (depth - 1)));
        (1, G.map (fun ie -> Index (array_name, ie)) gen_index_expr);
        ( 1,
          G.map3
            (fun c a b -> Select (c, a, b))
            (gen_expr ~secret_ok (depth - 1))
            (gen_expr ~secret_ok (depth - 1))
            (gen_expr ~secret_ok (depth - 1)) );
      ]

(* Public branch conditions may only read untainted material — index
   variables and constants — or the program would branch on secret-derived
   data, which no scheme protects (Secrecy flags it as Unmarked_branch). *)
let gen_public_cond =
  let leaf =
    G.oneof
      [
        G.map (fun n -> Int n) (G.int_range (-20) 20);
        G.map (fun v_ -> Var v_) (G.oneofl index_vars);
      ]
  in
  G.map3
    (fun op a b -> Binop (op, a, b))
    (G.oneofl [ Lt; Le; Gt; Ge; Eq; Ne; Add; Bxor ])
    leaf leaf

(* ---- statement generator ---- *)

let ( let* ) x f = G.( >>= ) x f

(* [in_secret]: inside a secret branch only data vars may be assigned and
   only public Ifs/loops with data bodies appear. [idx_pool] holds the index
   variables not used by an enclosing loop, so nested loops never share an
   induction variable (which would not terminate). *)
let rec gen_stmt ~in_secret ~idx_pool ~depth =
  let assign_data =
    G.map2
      (fun v_ e -> Assign (v_, e))
      (G.oneofl data_vars)
      (gen_expr ~secret_ok:false 2)
  in
  let base =
    if in_secret then [ (4, assign_data) ]
    else
      [
        (4, assign_data);
        ( 2,
          G.map2
            (fun v_ e -> Assign (v_, e))
            (G.oneofl globals)
            (gen_expr ~secret_ok:false 2) );
        ( 2,
          G.map2
            (fun ie e -> Store (array_name, ie, e))
            gen_index_expr
            (gen_expr ~secret_ok:false 2) );
      ]
  in
  if depth = 0 then G.frequency base
  else
    let nested =
      [
        ( 2,
          let* cond = gen_public_cond in
          let* then_ = gen_block ~in_secret ~idx_pool ~depth:(depth - 1) in
          let* else_ = gen_block ~in_secret ~idx_pool ~depth:(depth - 1) in
          G.return (If { secret = false; cond; then_; else_ }) );
      ]
      @ (match (in_secret, idx_pool) with
         | true, _ | _, [] -> []
         | false, x :: rest ->
           [
             ( 2,
               (* loops assign their index variable, which is
                  public-by-requirement; keeping them out of secret arms
                  mirrors the constant-time discipline the transforms
                  enforce (leaf-local control state). *)
               let* hi = G.int_range 1 5 in
               let* body = gen_block ~in_secret ~idx_pool:rest ~depth:(depth - 1) in
               G.return (For (x, Int 0, Int hi, body)) );
           ])
      @
      if in_secret then []
      else
        [
          ( 3,
            let* sv = G.oneofl secret_vars in
            let* then_ = gen_block ~in_secret:true ~idx_pool ~depth:(depth - 1) in
            let* else_ = gen_block ~in_secret:true ~idx_pool ~depth:(depth - 1) in
            G.return
              (If { secret = true; cond = Var sv <>: i 0; then_; else_ }) );
        ]
    in
    G.frequency (base @ nested)

and gen_block ~in_secret ~idx_pool ~depth =
  let* n = G.int_range 1 3 in
  G.list_size (G.return n) (gen_stmt ~in_secret ~idx_pool ~depth)

let gen_program =
  let* body = gen_block ~in_secret:false ~idx_pool:index_vars ~depth:3 in
  let* fill = G.list_size (G.return array_size) (G.int_range (-30) 30) in
  let checksum =
    (* fold everything observable into the return value *)
    List.fold_left
      (fun acc v_ -> acc +: v_)
      (v "x0")
      [ v "x1"; v "x2"; v "g0"; v "g1"; idx array_name (i 3) ]
  in
  G.return
    ( {
        funcs =
          [
            {
              fname = "main";
              params = [];
              locals = data_vars @ index_vars;
              body = body @ [ ret checksum ];
            };
          ];
        globals = globals @ secret_vars;
        arrays = [ { aname = array_name; size = array_size; scratch = false } ];
        secrets = secret_vars;
        main = "main";
      },
      fill )

let arbitrary_program =
  QCheck.make ~print:(fun (p, _) -> Format.asprintf "%a" pp_program p) gen_program

type state = { rv : int; gvals : int list; arr : int array }

let reference prog ~fill ~secrets =
  let st = Eval.init prog in
  List.iter (fun (name, value) -> Eval.set_global st name value) secrets;
  Eval.set_array st array_name (Array.of_list fill);
  let rv = Eval.run ~max_steps:2_000_000 st in
  {
    rv;
    gvals = List.map (Eval.get_global st) globals;
    arr = Eval.get_array st array_name;
  }

let simulated scheme prog ~fill ~secrets =
  let built = Harness.build scheme prog in
  let outcome =
    Harness.run ~globals:secrets
      ~arrays:[ (array_name, Array.of_list fill) ]
      ~mem_words:(1 lsl 14) built
  in
  {
    rv = Harness.return_value outcome;
    gvals = List.map (Harness.read_global built outcome) globals;
    arr = Harness.read_array built outcome array_name;
  }

let secret_assignments =
  [
    [ ("s0", 0); ("s1", 0) ];
    [ ("s0", 1); ("s1", 0) ];
    [ ("s0", 0); ("s1", 1) ];
    [ ("s0", 1); ("s1", 1) ];
  ]

let prop_all_schemes_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"all schemes compute reference semantics" ~count:60
       arbitrary_program
       (fun (prog, fill) ->
         List.for_all
           (fun secrets ->
             let expected = reference prog ~fill ~secrets in
             List.for_all
               (fun scheme ->
                 let got = simulated scheme prog ~fill ~secrets in
                 got.rv = expected.rv
                 && got.gvals = expected.gvals
                 && got.arr = expected.arr)
               Scheme.all)
           secret_assignments))

let prop_sempe_trace_secret_independent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"SeMPE pc trace independent of secrets" ~count:60
       arbitrary_program
       (fun (prog, fill) ->
         let priv = Shadow.privatize prog in
         let compiled, layout = Codegen.compile priv in
         let trace secrets =
           let digest = ref 2166136261 in
           let sink = function
             | Sempe_pipeline.Uop.Commit u ->
               digest := (!digest * 16777619) lxor u.Sempe_pipeline.Uop.pc
             | Sempe_pipeline.Uop.Drain _ -> ()
           in
           let init_mem mem =
             List.iter
               (fun (name, value) ->
                 Memory.set mem (Codegen.scalar_offset layout name) value)
               secrets;
             let off, _ = Codegen.array_slice layout array_name in
             List.iteri (fun k v_ -> Memory.set mem (off + k) v_) fill
           in
           let config =
             { Exec.default_config with Exec.support = Exec.Sempe_hw;
               mem_words = 1 lsl 14 }
           in
           ignore (Exec.run ~config ~init_mem ~sink compiled);
           !digest
         in
         let d0 = trace (List.hd secret_assignments) in
         List.for_all (fun s -> trace s = d0) (List.tl secret_assignments)))

let tests = [ prop_all_schemes_agree; prop_sempe_trace_secret_independent ]
