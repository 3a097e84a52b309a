(* Reference model: ArchRS (§IV-F, Figure 6) as plain data, written
   from [lib/core/snapshot.mli] and DESIGN.md key decision 2. A frame is
   two register arrays and two [bool array] modified sets; the open
   frames are a list, innermost first. Nothing is pooled, packed or
   reused. [Test_ref_equiv] drives this and the production [Snapshot]
   through identical legal sequences and requires identical registers
   and returned counts after every step. *)

type phase = Nt_path | T_path

type frame = {
  pre_state : int array;
  mutable nt_state : int array;
  nt_modified : bool array;
  t_modified : bool array;
  outcome : bool;
  mutable phase : phase;
}

type t = { mutable frames : frame list }

let create () = { frames = [] }
let depth t = List.length t.frames

let push t ~regs ~outcome =
  let n = Array.length regs in
  let frame =
    {
      pre_state = Array.copy regs;
      nt_state = [||];
      nt_modified = Array.make n false;
      t_modified = Array.make n false;
      outcome;
      phase = Nt_path;
    }
  in
  t.frames <- frame :: t.frames

(* The set the executing path writes into. *)
let current f = match f.phase with Nt_path -> f.nt_modified | T_path -> f.t_modified

let size set = Array.fold_left (fun n m -> if m then n + 1 else n) 0 set

let note_write t r = match t.frames with [] -> () | f :: _ -> (current f).(r) <- true

(* First eosJMP: keep the NT path's registers, and start the T path from
   the pre-state. *)
let end_nt_path t ~regs =
  match t.frames with
  | ({ phase = Nt_path; _ } as f) :: _ ->
    f.nt_state <- Array.copy regs;
    Array.iteri (fun r m -> if m then regs.(r) <- f.pre_state.(r)) f.nt_modified;
    f.phase <- T_path;
    size f.nt_modified
  | _ -> invalid_arg "Ref_snapshot.end_nt_path"

(* Second eosJMP. The true path's registers win: on a taken outcome they
   are the live T-path values already; on a not-taken one, a register the
   NT path wrote takes its NT value and a register only the T path wrote
   goes back to the pre-state. The restore writes every register of the
   union, so the enclosing path has written them all. *)
let finish t ~regs =
  match t.frames with
  | ({ phase = T_path; _ } as f) :: rest ->
    let union = Array.map2 ( || ) f.nt_modified f.t_modified in
    if not f.outcome then
      Array.iteri
        (fun r m ->
          if m then
            regs.(r) <- (if f.nt_modified.(r) then f.nt_state.(r) else f.pre_state.(r)))
        union;
    (match rest with
    | parent :: _ ->
      let pv = current parent in
      Array.iteri (fun r m -> if m then pv.(r) <- true) union
    | [] -> ());
    t.frames <- rest;
    size union
  | _ -> invalid_arg "Ref_snapshot.finish"
