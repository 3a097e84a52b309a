module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Codegen = Sempe_lang.Codegen
module Shadow = Sempe_lang.Shadow

type built = {
  scheme : Scheme.t;
  ast : Sempe_lang.Ast.program;
  prog : Sempe_isa.Program.t;
  layout : Codegen.layout;
}

let transform ?(fault = Exec.No_fault) scheme ast =
  match scheme with
  | Scheme.Baseline -> Shadow.strip_secret_marks ast
  | Scheme.Sempe | Scheme.Sempe_on_legacy ->
    Shadow.privatize
      ~skip_merge:(fault = Exec.Skip_restore)
      ~skip_nt_shadow:(fault = Exec.Skip_nt_restore)
      ast
  | Scheme.Cte -> Sempe_cte.Baselines.cte ast
  | Scheme.Raccoon -> Sempe_cte.Baselines.raccoon ast
  | Scheme.Mto -> Sempe_cte.Baselines.mto ast

let build ?fault scheme ast =
  let ast = transform ?fault scheme ast in
  let prog, layout = Codegen.compile ast in
  { scheme; ast; prog; layout }

let init_mem_of built ~globals ~arrays mem =
  List.iter
    (fun (name, value) ->
      Memory.set mem (Codegen.scalar_offset built.layout name) value)
    globals;
  List.iter
    (fun (name, values) ->
      let off, size = Codegen.array_slice built.layout name in
      if Array.length values <> size then
        invalid_arg
          (Printf.sprintf "Harness.run: array %S expects %d values, got %d"
             name size (Array.length values));
      Memory.blit_array values 0 mem off size)
    arrays

let run ?machine ?(mem_words = 1 lsl 20) ?max_instrs ?forgiving_oob ?fault
    ?(globals = []) ?(arrays = []) ?sink built =
  Run.simulate
    ~support:(Scheme.support built.scheme)
    ?machine ~mem_words ?max_instrs ?forgiving_oob ?fault
    ~init_mem:(init_mem_of built ~globals ~arrays)
    ?sink built.prog

let sample ?machine ?(mem_words = 1 lsl 20) ?max_instrs ?forgiving_oob ?fault
    ?(globals = []) ?(arrays = []) ?config ?workers ?plan ?plan_out
    ?cost_fallback built =
  Sempe_sampling.Sampling.estimate
    ~support:(Scheme.support built.scheme)
    ?machine ~mem_words ?max_instrs ?forgiving_oob ?fault
    ~init_mem:(init_mem_of built ~globals ~arrays)
    ?config ?workers ?plan ?plan_out ?cost_fallback built.prog

let return_value (o : Run.outcome) = o.Run.exec.Exec.regs.(Sempe_isa.Reg.rv)

let read_global built (o : Run.outcome) name =
  Memory.get o.Run.exec.Exec.memory (Codegen.scalar_offset built.layout name)

let read_array built (o : Run.outcome) name =
  let off, size = Codegen.array_slice built.layout name in
  Memory.sub o.Run.exec.Exec.memory off size
