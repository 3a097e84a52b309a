module Reg = Sempe_isa.Reg

type phase = Nt_path | T_path

(* Each modified vector is one [int] mask: bit [r] is register [r]. *)
let () = assert (Reg.count < Sys.int_size)

(* One frame per nesting level, pooled: frames are allocated only the first
   time a nesting depth is reached and reused for every later SecBlock at
   that depth. Entering/leaving a SecBlock is the hot non-straight-line
   event of a SeMPE execution (once per committed sJMP in both execution
   modes). *)
type frame = {
  pre_state : int array;
  nt_state : int array;
  mutable nt_modified : int;
  mutable t_modified : int;
  mutable outcome : bool;
  mutable phase : phase;
}

type t = {
  mutable frames : frame array; (* pool; frames.(0 .. depth-1) are live *)
  mutable depth : int;
}

let create () = { frames = [||]; depth = 0 }

let depth t = t.depth

let new_frame () =
  {
    pre_state = Array.make Reg.count 0;
    nt_state = Array.make Reg.count 0;
    nt_modified = 0;
    t_modified = 0;
    outcome = false;
    phase = Nt_path;
  }

let push t ~regs ~outcome =
  if t.depth = Array.length t.frames then
    t.frames <- Array.append t.frames [| new_frame () |];
  let f = t.frames.(t.depth) in
  Array.blit regs 0 f.pre_state 0 Reg.count;
  f.nt_modified <- 0;
  f.t_modified <- 0;
  f.outcome <- outcome;
  f.phase <- Nt_path;
  t.depth <- t.depth + 1

let top t =
  if t.depth = 0 then invalid_arg "Snapshot: no open SecBlock";
  Array.unsafe_get t.frames (t.depth - 1)

let current_phase t = (top t).phase

(* Add [mask] to the modified set of the path [f] is executing. *)
let mark f mask =
  match f.phase with
  | Nt_path -> f.nt_modified <- f.nt_modified lor mask
  | T_path -> f.t_modified <- f.t_modified lor mask

let note_write t r =
  if t.depth > 0 then mark (Array.unsafe_get t.frames (t.depth - 1)) (1 lsl r)

let popcount m =
  let m = ref m and n = ref 0 in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr n
  done;
  !n

let end_nt_path t ~regs =
  let f = top t in
  if f.phase <> Nt_path then invalid_arg "Snapshot.end_nt_path: not in NT path";
  Array.blit regs 0 f.nt_state 0 Reg.count;
  (* Roll the live registers back to the pre-state so the T path starts from
     the same state the NT path did. *)
  for r = 0 to Reg.count - 1 do
    if f.nt_modified land (1 lsl r) <> 0 then regs.(r) <- f.pre_state.(r)
  done;
  f.phase <- T_path;
  popcount f.nt_modified

let finish t ~regs =
  let f = top t in
  if f.phase <> T_path then invalid_arg "Snapshot.finish: NT path still open";
  let union = f.nt_modified lor f.t_modified in
  if not f.outcome then
    (* The NT path is the true path: registers it modified take their
       NT-state values; registers modified only by the (wrong) T path roll
       back to the pre-state. When the outcome is taken, the current values
       (the T path's results) are already correct — the hardware still reads
       every modified register from the SPM and overwrites it with itself so
       the restore cost cannot leak the outcome. *)
    for r = 0 to Reg.count - 1 do
      if union land (1 lsl r) <> 0 then
        if f.nt_modified land (1 lsl r) <> 0 then regs.(r) <- f.nt_state.(r)
        else regs.(r) <- f.pre_state.(r)
    done;
  (* Propagate the modified union into the parent frame's current set: an
     inner SecBlock's restore writes registers during the parent's path. *)
  if t.depth >= 2 then mark (Array.unsafe_get t.frames (t.depth - 2)) union;
  t.depth <- t.depth - 1;
  popcount union
