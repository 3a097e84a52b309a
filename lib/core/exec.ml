open Sempe_isa
module Uop = Sempe_pipeline.Uop
module Warm = Sempe_pipeline.Warm
module Spm = Sempe_mem.Spm

type support = Legacy | Sempe_hw

type fault = No_fault | Skip_restore | Skip_nt_restore

let fault_name = function
  | No_fault -> "none"
  | Skip_restore -> "skip-restore"
  | Skip_nt_restore -> "skip-nt-restore"

let fault_of_string = function
  | "none" -> Some No_fault
  | "skip-restore" -> Some Skip_restore
  | "skip-nt-restore" -> Some Skip_nt_restore
  | _ -> None

type config = {
  support : support;
  mem_words : int;
  max_instrs : int;
  spm : Spm.config;
  jbtable_entries : int;
  forgiving_oob : bool;
  fault : fault;
}

let default_config =
  {
    support = Sempe_hw;
    mem_words = 1 lsl 20;
    max_instrs = 200_000_000;
    spm = Spm.default_config;
    jbtable_entries = Spm.default_config.Spm.max_snapshots;
    forgiving_oob = true;
    fault = No_fault;
  }

exception Out_of_bounds of { pc : int; addr : int }
exception Budget_exceeded of int

type result = {
  regs : int array;
  memory : Memory.t;
  dyn_instrs : int;
  dyn_sjmps : int;
  max_nesting : int;
  spm : Spm.t;
}

type state = {
  cfg : config;
  prog : Program.t;
  regs : int array;
  mem : Memory.t;
  jb : Jbtable.t;
  snaps : Snapshot.t;
  spm : Spm.t;
  sink : Uop.event -> unit;
  (* [emit] is false when no sink was supplied: the µop events would be
     discarded anyway, so fast-forward execution skips producing them. *)
  emit : bool;
  (* Fast-forward functional warming: when present, every architectural
     step drives the shared {!Sempe_pipeline.Warm} update protocol — the
     same calls, in the same order, that {!Sempe_pipeline.Timing} makes
     when it consumes the committed µop stream — so caches and predictors
     end up in the state a detailed run would have produced. *)
  warm : Warm.t option;
  mutable pc : int;
  mutable count : int;
  mutable sjmps : int;
  mutable max_nesting : int;
  mutable halted : bool;
  (* Decoded micro-op cache: one thunk per static pc, specialized at
     session creation (opcode, operands, secure-ness, OOB policy, sink and
     warm presence all resolved once). The per-step loop is then a single
     indexed indirect call instead of re-matching the [Instr.t] tree.
     Rebuilt by [start]/[resume]; never part of a captured [arch]. *)
  mutable code : (unit -> unit) array;
}

(* Fault injection for the differential fuzzer's self-test: run a snapshot
   restore phase with its register writes suppressed. The snapshot stack
   bookkeeping (frame pop, SPM transfer sizes) still happens — only the
   architectural effect of the restore is lost. For compiled programs this
   is architecturally silent on its own (the memory-to-memory codegen
   leaves no register live across an eosJMP); the observable half of the
   same seeded bug lives in the ShadowMemory lowering — see
   Sempe_lang.Shadow.privatize and Sempe_workloads.Harness.transform. *)
(* The fault comparison happens once at predecode and the slow path is
   written out at each site: passing [fun () -> ...] to a combinator per
   committed eosJMP would allocate a closure without flambda. *)

(* ALU/condition semantics specialized at decode time: each predecoded
   thunk holds a direct pointer to its operation instead of re-matching
   the op constructor per dynamic execution. *)
let alu_fn : Instr.alu_op -> int -> int -> int = function
  | Instr.Add -> ( + )
  | Instr.Sub -> ( - )
  | Instr.Mul -> ( * )
  | Instr.Div -> fun a b -> if b = 0 then 0 else a / b
  | Instr.Rem -> fun a b -> if b = 0 then 0 else a mod b
  | Instr.And -> ( land )
  | Instr.Or -> ( lor )
  | Instr.Xor -> ( lxor )
  | Instr.Shl -> fun a b -> a lsl (b land 63)
  | Instr.Shr -> fun a b -> a asr (b land 63)
  | Instr.Slt -> fun a b -> if a < b then 1 else 0
  | Instr.Sle -> fun a b -> if a <= b then 1 else 0
  | Instr.Seq -> fun a b -> if a = b then 1 else 0
  | Instr.Sne -> fun a b -> if a <> b then 1 else 0

let cond_fn : Instr.cond -> int -> int -> bool = function
  | Instr.Eq -> ( = )
  | Instr.Ne -> ( <> )
  | Instr.Lt -> ( < )
  | Instr.Ge -> ( >= )
  | Instr.Le -> ( <= )
  | Instr.Gt -> ( > )

(* Build the decoded micro-op cache for a session. Every thunk ends by
   setting [st.pc]; the driver loops [st.code.(st.pc) ()].

   Warming order inside each thunk matches the timing model's µop path
   exactly: instruction fetch, then any data access, then control flow.

   Commit events reuse one predecoded µop record per static pc (static
   fields filled here, dynamic fields — memory address, branch outcome,
   indirect target — written just before each emit), so the instrumented
   path allocates nothing per instruction. Sinks must not retain the
   record (see {!Sempe_pipeline.Uop}). *)
let predecode st =
  let cfg = st.cfg in
  let mw = cfg.mem_words in
  let forgiving = cfg.forgiving_oob in
  let sempe = cfg.support = Sempe_hw in
  let plen = Program.length st.prog in
  let regs = st.regs and mem = st.mem in
  (* The load/store page lookup is written out inline below (fixed-size
     page table, never replaced); only a store's first write to a page
     leaves the thunk, through [Memory.set]. *)
  let pages = mem.Memory.pages in
  let page_bits = Memory.page_bits and page_mask = Memory.page_mask in
  let snaps = st.snaps and jb = st.jb and spm = st.spm in
  let emit = st.emit and sink = st.sink in
  let warm = st.warm in
  let fault_nt = cfg.fault = Skip_nt_restore in
  let fault_restore = cfg.fault = Skip_restore in
  let wr r v =
    if r <> Reg.zero then begin
      regs.(r) <- v;
      Snapshot.note_write snaps r
    end
  in
  (* Control-flow mirror of the data-side clamp: a wild indirect target is
     wrapped into the program under forgiving mode, and traps otherwise. *)
  let resolve_target pc target =
    if target >= 0 && target < plen then target
    else if forgiving then ((target mod plen) + plen) mod plen
    else raise (Out_of_bounds { pc; addr = target })
  in
  let decode pc instr =
    let u = Uop.of_instr ~pc instr ~mem_addr:0 in
    let ev = Uop.Commit u in
    match instr with
    | Instr.Nop ->
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        st.pc <- pc + 1
    | Instr.Alu (op, rd, rs1, rs2) ->
      let f = alu_fn op in
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        wr rd (f regs.(rs1) regs.(rs2));
        st.pc <- pc + 1
    | Instr.Alui (op, rd, rs1, imm) ->
      let f = alu_fn op in
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        wr rd (f regs.(rs1) imm);
        st.pc <- pc + 1
    | Instr.Li (rd, imm) ->
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        wr rd imm;
        st.pc <- pc + 1
    | Instr.Ld (rd, base, off) ->
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        let addr = regs.(base) + off in
        if addr >= 0 && addr < mw then begin
          (match warm with
           | Some w -> ignore (Warm.data w ~pc ~word_addr:addr ~write:false : int)
           | None -> ());
          if emit then begin
            u.Uop.mem_addr <- addr;
            sink ev
          end;
          let p = pages.(addr lsr page_bits) and o = addr land page_mask in
          wr rd (if o < Array.length p then Array.unsafe_get p o else 0)
        end
        else if forgiving then begin
          (* clamp the cache address, read as zero *)
          let a = ((addr mod mw) + mw) mod mw in
          (match warm with
           | Some w -> ignore (Warm.data w ~pc ~word_addr:a ~write:false : int)
           | None -> ());
          if emit then begin
            u.Uop.mem_addr <- a;
            sink ev
          end;
          wr rd 0
        end
        else raise (Out_of_bounds { pc; addr });
        st.pc <- pc + 1
    | Instr.St (rs, base, off) ->
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        let addr = regs.(base) + off in
        if addr >= 0 && addr < mw then begin
          (match warm with
           | Some w -> ignore (Warm.data w ~pc ~word_addr:addr ~write:true : int)
           | None -> ());
          if emit then begin
            u.Uop.mem_addr <- addr;
            sink ev
          end;
          let p = pages.(addr lsr page_bits) and o = addr land page_mask in
          let v = regs.(rs) in
          if o < Array.length p then Array.unsafe_set p o v
          else Memory.set mem addr v
        end
        else if forgiving then begin
          (* clamp the cache address, drop the store *)
          let a = ((addr mod mw) + mw) mod mw in
          (match warm with
           | Some w -> ignore (Warm.data w ~pc ~word_addr:a ~write:true : int)
           | None -> ());
          if emit then begin
            u.Uop.mem_addr <- a;
            sink ev
          end
        end
        else raise (Out_of_bounds { pc; addr });
        st.pc <- pc + 1
    | Instr.Cmov (rd, rc, rs) ->
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        if regs.(rc) <> 0 then wr rd regs.(rs);
        st.pc <- pc + 1
    | Instr.Br { cond; rs1; rs2; target; secure } when secure && sempe ->
      (* Committed sJMP: enter a SecBlock (Sempe_hw only). *)
      u.Uop.ctl <- Uop.Ctl_branch;
      u.Uop.secure <- true;
      u.Uop.target <- target;
      let cf = cond_fn cond in
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        let outcome = cf regs.(rs1) regs.(rs2) in
        ignore (Jbtable.push jb);
        Jbtable.commit_sjmp jb ~dest:target ~outcome;
        if emit then begin
          u.Uop.taken <- outcome;
          sink ev
        end;
        let cycles = Spm.push_full_save spm in
        Snapshot.push snaps ~regs ~outcome;
        if Snapshot.depth snaps > st.max_nesting then
          st.max_nesting <- Snapshot.depth snaps;
        if emit then
          sink
            (Uop.Drain
               { reason = Uop.Drain_enter_secblock; spm_cycles = cycles });
        st.sjmps <- st.sjmps + 1;
        st.pc <- pc + 1
    | Instr.Br { cond; rs1; rs2; target; secure = _ } ->
      (* ordinary predicted branch (non-secure, or SecPrefix on legacy) *)
      u.Uop.ctl <- Uop.Ctl_branch;
      u.Uop.target <- target;
      let cf = cond_fn cond in
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        let taken = cf regs.(rs1) regs.(rs2) in
        (match warm with
         | Some w -> ignore (Warm.cond_branch w ~pc ~taken ~target : Warm.cond)
         | None -> ());
        if emit then begin
          u.Uop.taken <- taken;
          sink ev
        end;
        st.pc <- (if taken then target else pc + 1)
    | Instr.Jmp target ->
      u.Uop.ctl <- Uop.Ctl_jump;
      u.Uop.target <- target;
      fun () ->
        (match warm with
         | Some w ->
           ignore (Warm.fetch w ~pc : int);
           ignore (Warm.taken_transfer w ~pc ~target : Warm.transfer)
         | None -> ());
        if emit then sink ev;
        st.pc <- target
    | Instr.Call target ->
      u.Uop.ctl <- Uop.Ctl_call;
      u.Uop.target <- target;
      u.Uop.return_to <- pc + 1;
      fun () ->
        (match warm with
         | Some w ->
           ignore (Warm.fetch w ~pc : int);
           ignore
             (Warm.call w ~pc ~target ~return_to:(pc + 1) : Warm.transfer)
         | None -> ());
        if emit then sink ev;
        wr Reg.ra (pc + 1);
        st.pc <- target
    | Instr.Jr r ->
      u.Uop.ctl <- Uop.Ctl_indirect;
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        let target = resolve_target pc regs.(r) in
        (match warm with
         | Some w -> ignore (Warm.indirect w ~pc ~target : Warm.target_pred)
         | None -> ());
        if emit then begin
          u.Uop.target <- target;
          sink ev
        end;
        st.pc <- target
    | Instr.Ret ->
      u.Uop.ctl <- Uop.Ctl_ret;
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        let target = resolve_target pc regs.(Reg.ra) in
        (match warm with
         | Some w -> ignore (Warm.ret w ~target : Warm.target_pred)
         | None -> ());
        if emit then begin
          u.Uop.target <- target;
          sink ev
        end;
        st.pc <- target
    | Instr.Eosjmp when sempe ->
      (* eosJMP under Sempe_hw: consult the jbTable. Outside any secure
         region the instruction decodes as a NOP, like on legacy
         hardware. The µop's control kind is dynamic (plain vs jump-back),
         so [ctl] is written per commit. *)
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if Jbtable.is_empty jb then begin
          if emit then begin
            u.Uop.ctl <- Uop.Ctl_none;
            sink ev
          end;
          st.pc <- pc + 1
        end
        else begin
          match Jbtable.on_eosjmp jb with
          | Jbtable.Jump_back dest ->
            if emit then begin
              u.Uop.ctl <- Uop.Ctl_jumpback;
              u.Uop.target <- dest;
              sink ev
            end;
            let nt_mods =
              if fault_nt then begin
                let saved = Array.copy regs in
                let r = Snapshot.end_nt_path snaps ~regs in
                Array.blit saved 0 regs 0 (Array.length saved);
                r
              end
              else Snapshot.end_nt_path snaps ~regs
            in
            let c1 = Spm.save_modified spm ~modified:nt_mods in
            let c2 = Spm.read_modified spm ~modified:nt_mods in
            if emit then
              sink
                (Uop.Drain
                   { reason = Uop.Drain_after_nt_path; spm_cycles = c1 + c2 });
            st.pc <- dest
          | Jbtable.Release ->
            if emit then begin
              u.Uop.ctl <- Uop.Ctl_none;
              sink ev
            end;
            let union =
              if fault_restore then begin
                let saved = Array.copy regs in
                let r = Snapshot.finish snaps ~regs in
                Array.blit saved 0 regs 0 (Array.length saved);
                r
              end
              else Snapshot.finish snaps ~regs
            in
            let cycles = Spm.restore spm ~modified_union:union in
            if emit then
              sink
                (Uop.Drain
                   { reason = Uop.Drain_exit_secblock; spm_cycles = cycles });
            st.pc <- pc + 1
        end
    | Instr.Eosjmp ->
      (* legacy hardware: NOP *)
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        st.pc <- pc + 1
    | Instr.Halt ->
      fun () ->
        (match warm with
         | Some w -> ignore (Warm.fetch w ~pc : int)
         | None -> ());
        if emit then sink ev;
        st.halted <- true
  in
  Array.mapi decode st.prog.Program.code

type session = state

let start ?(config = default_config) ?init_mem ?sink ?warm prog =
  let emit, sink =
    match sink with Some s -> (true, s) | None -> (false, fun _ -> ())
  in
  let st =
    {
      cfg = config;
      prog;
      regs = Array.make Reg.count 0;
      mem = Memory.create config.mem_words;
      jb = Jbtable.create ~entries:config.jbtable_entries ();
      snaps = Snapshot.create ();
      spm = Spm.create ~config:config.spm ();
      sink;
      emit;
      warm;
      pc = prog.Program.entry;
      count = 0;
      sjmps = 0;
      max_nesting = 0;
      halted = false;
      code = [||];
    }
  in
  (* The stack grows down from the last valid word. (The top-of-memory
     address itself would be out of bounds: with the old [mem_words]
     initialization a first access through sp under forgiving mode wrapped
     to address 0 and aliased global data.) *)
  st.regs.(Reg.sp) <- config.mem_words - 1;
  st.regs.(Reg.gp) <- 0;
  (match init_mem with Some f -> f st.mem | None -> ());
  st.code <- predecode st;
  st

let step_slice st n =
  let stop = st.count + n in
  let code = st.code in
  let max_instrs = st.cfg.max_instrs in
  while (not st.halted) && st.count < stop do
    if st.count >= max_instrs then raise (Budget_exceeded st.count);
    code.(st.pc) ();
    st.count <- st.count + 1
  done;
  st.halted

let halted st = st.halted
let instructions st = st.count

let finish st =
  let code = st.code in
  let max_instrs = st.cfg.max_instrs in
  while not st.halted do
    if st.count >= max_instrs then raise (Budget_exceeded st.count);
    code.(st.pc) ();
    st.count <- st.count + 1
  done;
  {
    regs = st.regs;
    memory = st.mem;
    dyn_instrs = st.count;
    dyn_sjmps = st.sjmps;
    max_nesting = st.max_nesting;
    spm = st.spm;
  }

let run ?config ?init_mem ?sink prog = finish (start ?config ?init_mem ?sink prog)

(* ---- architectural snapshots ------------------------------------------- *)

(* Everything a session owns except the (immutable, shared) program and the
   sink/warm plumbing, as a plain record of plain data: registers, memory
   (its bare page table: [a_cfg.mem_words] is its size), jbTable, register
   snapshots, SPM, and the scalar cursor. The decoded micro-op cache is
   deliberately excluded — it holds closures (not marshalable) and is cheap
   to rebuild relative to any measured interval, so [resume] re-derives it
   from the program. The fields alias the live session's arrays — serialize
   (or deep-copy) the capture before stepping the session further. *)
type arch = {
  a_cfg : config;
  a_regs : int array;
  a_mem : int array array;
  a_jb : Jbtable.t;
  a_snaps : Snapshot.t;
  a_spm : Spm.t;
  a_pc : int;
  a_count : int;
  a_sjmps : int;
  a_max_nesting : int;
  a_halted : bool;
}

let capture st =
  {
    a_cfg = st.cfg;
    a_regs = st.regs;
    a_mem = st.mem.Memory.pages;
    a_jb = st.jb;
    a_snaps = st.snaps;
    a_spm = st.spm;
    a_pc = st.pc;
    a_count = st.count;
    a_sjmps = st.sjmps;
    a_max_nesting = st.max_nesting;
    a_halted = st.halted;
  }

let arch_mem a = Memory.of_pages ~words:a.a_cfg.mem_words a.a_mem
let arch_with_mem a mem = { a with a_mem = mem.Memory.pages }
let arch_instructions a = a.a_count
let arch_halted a = a.a_halted

let resume ?sink ?warm prog arch =
  let emit, sink =
    match sink with Some s -> (true, s) | None -> (false, fun _ -> ())
  in
  let st =
    {
      cfg = arch.a_cfg;
      prog;
      regs = arch.a_regs;
      mem = Memory.of_pages ~words:arch.a_cfg.mem_words arch.a_mem;
      jb = arch.a_jb;
      snaps = arch.a_snaps;
      spm = arch.a_spm;
      sink;
      emit;
      warm;
      pc = arch.a_pc;
      count = arch.a_count;
      sjmps = arch.a_sjmps;
      max_nesting = arch.a_max_nesting;
      halted = arch.a_halted;
      code = [||];
    }
  in
  st.code <- predecode st;
  st
