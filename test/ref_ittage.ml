(* Reference model: the ITTAGE indirect-target predictor
   ([lib/bpred/ittage.ml]) as plain records. A tagged component is an
   array of entry records, one per cell, whose tag is an option rather
   than a -1 sentinel; the last-target table is an array of options; and
   the path history is the list of the most recent resolved targets,
   folded into each component's window when it is read, rather than a
   register shifted in place. The index and tag hashes, the geometric
   history lengths and the allocation and aging policy are the
   production predictor's, restated. [Test_ref_equiv] drives both
   through identical streams and requires equal predictions and equal
   state signatures. *)

type config = Sempe_bpred.Ittage.config = {
  num_tables : int;
  table_bits : int;
  tag_bits : int;
  min_history : int;
  max_history : int;
  base_bits : int;
}

type entry = {
  mutable tag : int option;  (** [None]: never allocated *)
  mutable target : int;
  mutable conf : int;  (** 0..3 *)
  mutable u : int;  (** usefulness, 0..3 *)
}

type component = { entries : entry array; window_bits : int }

type t = {
  cfg : config;
  last_target : int option array;
  components : component array;
  mutable path : int list;  (** resolved targets, most recent first *)
  mutable updates : int;  (** since creation or the last reset *)
}

(* The path history register is 30 bits wide and each resolved target
   shifts it three bits, so only the ten most recent targets reach it. *)
let path_depth = 10

(* Geometric lengths from [min_history] to [max_history], at least
   [i + 1] for the [i]th component; a component sees twice its length
   in bits of the path history, at most the whole register. *)
let window cfg i =
  let n = cfg.num_tables in
  let ratio =
    if n = 1 then 1.0
    else
      (float_of_int cfg.max_history /. float_of_int cfg.min_history)
      ** (1.0 /. float_of_int (n - 1))
  in
  let length =
    max (i + 1)
      (int_of_float
         (Float.round (float_of_int cfg.min_history *. (ratio ** float_of_int i))))
  in
  min 30 (2 * length)

let fresh_entry () = { tag = None; target = 0; conf = 0; u = 0 }

let create ?(config = Sempe_bpred.Ittage.default_config) () =
  let cfg = config in
  {
    cfg;
    last_target = Array.make (1 lsl cfg.base_bits) None;
    components =
      Array.init cfg.num_tables (fun i ->
          {
            entries = Array.init (1 lsl cfg.table_bits) (fun _ -> fresh_entry ());
            window_bits = window cfg i;
          });
    path = [];
    updates = 0;
  }

(* The path history: the low six bits of the [k]th most recent target,
   shifted left by [3 * k], all xor-ed into one 30-bit value. *)
let history t =
  let _, h =
    List.fold_left
      (fun (k, h) target -> (k + 1, h lxor ((target land 0x3f) lsl (3 * k))))
      (0, 0) t.path
  in
  h land ((1 lsl 30) - 1)

let windowed t i = history t land ((1 lsl t.components.(i).window_bits) - 1)

let index t i pc =
  let h = windowed t i in
  (pc lxor (h * 2654435761) lxor (pc lsr (i + 3)))
  land ((1 lsl t.cfg.table_bits) - 1)

let tag_of t i pc =
  let h = windowed t i in
  (pc lxor (h * 40503) lxor (pc lsr 5)) land ((1 lsl t.cfg.tag_bits) - 1)

let entry t i pc = t.components.(i).entries.(index t i pc)

let base_index t pc = pc land ((1 lsl t.cfg.base_bits) - 1)

(* The longest-history component whose entry for [pc] carries [pc]'s
   tag, with that entry. *)
let provider t pc =
  let rec scan i =
    if i < 0 then None
    else
      let e = entry t i pc in
      if e.tag = Some (tag_of t i pc) then Some (i, e) else scan (i - 1)
  in
  scan (t.cfg.num_tables - 1)

let predict t ~pc =
  match provider t pc with
  | Some (_, e) -> Some e.target
  | None -> t.last_target.(base_index t pc)

let predict_value t ~pc = Option.value (predict t ~pc) ~default:(-1)

(* A new entry for [pc] in the first component from [above] up whose
   entry is not useful; when every one is, each loses one usefulness
   step instead. *)
let allocate t ~above pc target =
  let candidates =
    List.init (t.cfg.num_tables - above) (fun k ->
        (above + k, entry t (above + k) pc))
  in
  match List.find_opt (fun (_, e) -> e.u = 0) candidates with
  | Some (i, e) ->
    e.tag <- Some (tag_of t i pc);
    e.target <- target;
    e.conf <- 0;
    e.u <- 0
  | None -> List.iter (fun (_, e) -> e.u <- max 0 (e.u - 1)) candidates

let update t ~pc ~target =
  (match provider t pc with
   | Some (i, e) ->
     if e.target = target then begin
       e.conf <- min 3 (e.conf + 1);
       e.u <- min 3 (e.u + 1)
     end
     else if e.conf > 0 then e.conf <- e.conf - 1
     else begin
       (* out of confidence: the entry takes the new target and a
          longer-history component gets an entry for it *)
       e.target <- target;
       e.u <- max 0 (e.u - 1);
       allocate t ~above:(i + 1) pc target
     end
   | None ->
     let b = base_index t pc in
     (match t.last_target.(b) with
      | Some last when last <> target -> allocate t ~above:0 pc target
      | Some _ | None -> ());
     t.last_target.(b) <- Some target);
  (* every 65,536th update, every entry loses one usefulness step *)
  t.updates <- t.updates + 1;
  if t.updates mod 65536 = 0 then
    Array.iter
      (fun c -> Array.iter (fun e -> e.u <- max 0 (e.u - 1)) c.entries)
      t.components;
  t.path <- List.filteri (fun k _ -> k < path_depth) (target :: t.path)

let reset t =
  Array.fill t.last_target 0 (Array.length t.last_target) None;
  Array.iter
    (fun c -> Array.iteri (fun k _ -> c.entries.(k) <- fresh_entry ()) c.entries)
    t.components;
  t.path <- [];
  t.updates <- 0

(* The production predictor's state hash, restated over the records:
   the last-target table, then every component's entries in order,
   then the path history; an unknown target and a never-allocated tag
   count as -1. *)
let signature t =
  let acc = ref 77777 in
  Array.iter
    (fun b -> acc := (!acc * 31) + Option.value b ~default:(-1) + 2)
    t.last_target;
  Array.iter
    (fun c ->
      Array.iter
        (fun e ->
          acc :=
            (!acc * 131)
            lxor (Option.value e.tag ~default:(-1) + (e.target lsl 3) + e.conf))
        c.entries)
    t.components;
  !acc lxor history t
