type config = {
  num_tables : int;
  table_bits : int;
  tag_bits : int;
  min_history : int;
  max_history : int;
  base_bits : int;
}

let default_config =
  {
    num_tables = 4;
    table_bits = 8;
    tag_bits = 9;
    min_history = 4;
    max_history = 64;
    base_bits = 9;
  }

(* Entry state in flat packed int arrays indexed
   [table * (1 lsl table_bits) + entry], same layout discipline as
   {!Tage}: no per-entry records to chase on the per-indirect hot path,
   and a warmed predictor checkpoint marshals four int arrays.
   e_tag = -1 encodes invalid; e_conf is a 0..3 confidence counter. *)
type t = {
  cfg : config;
  base : int array; (* last-target table; -1 = unknown *)
  tsize : int; (* 1 lsl table_bits *)
  e_tag : int array; (* num_tables * tsize; -1 = invalid *)
  e_target : int array;
  e_conf : int array;
  e_u : int array;
  hmask : int array; (* per-table folded path-history masks *)
  mutable history : int; (* folded path history *)
  mutable tick : int;
}

let geometric_lengths cfg =
  let n = cfg.num_tables in
  let ratio =
    if n = 1 then 1.0
    else
      (float_of_int cfg.max_history /. float_of_int cfg.min_history)
      ** (1.0 /. float_of_int (n - 1))
  in
  Array.init n (fun i ->
      Int.max (i + 1)
        (int_of_float
           (Float.round (float_of_int cfg.min_history *. (ratio ** float_of_int i)))))

let make cfg =
  let lens = geometric_lengths cfg in
  let n = cfg.num_tables in
  let tsize = 1 lsl cfg.table_bits in
  {
    cfg;
    base = Array.make (1 lsl cfg.base_bits) (-1);
    tsize;
    e_tag = Array.make (n * tsize) (-1);
    e_target = Array.make (n * tsize) 0;
    e_conf = Array.make (n * tsize) 0;
    e_u = Array.make (n * tsize) 0;
    hmask = Array.init n (fun i -> (1 lsl Int.min 30 (lens.(i) * 2)) - 1);
    history = 0;
    tick = 0;
  }

let create ?(config = default_config) () = make config

(* Fold the path history (masked to the table's window) with the pc into
   [table_bits] bits. *)
let index t i pc =
  let mask = t.tsize - 1 in
  let h = t.history land Array.unsafe_get t.hmask i in
  (pc lxor (h * 2654435761) lxor (pc lsr (i + 3))) land mask

let tag_of t i pc =
  let mask = (1 lsl t.cfg.tag_bits) - 1 in
  let h = t.history land Array.unsafe_get t.hmask i in
  (pc lxor (h * 40503) lxor (pc lsr 5)) land mask

let base_index t pc = pc land ((1 lsl t.cfg.base_bits) - 1)

(* Flat cell index of the longest-history matching component, -1 if none.
   While-loop scan: a local [let rec] would allocate a closure per
   indirect branch without flambda. *)
let find_provider_cell t pc =
  let found = ref (-1) in
  let i = ref (t.cfg.num_tables - 1) in
  while !found < 0 && !i >= 0 do
    let cell = (!i * t.tsize) + index t !i pc in
    if Array.unsafe_get t.e_tag cell = tag_of t !i pc then found := cell
    else decr i
  done;
  !found

let predict t ~pc =
  match find_provider_cell t pc with
  | -1 ->
    let b = t.base.(base_index t pc) in
    if b < 0 then None else Some b
  | cell -> Some t.e_target.(cell)

(* Allocation-free [predict] for the per-indirect hot path; -1 encodes
   "no target known". Same provider scan, without the option. *)
let predict_value t ~pc =
  let cell = find_provider_cell t pc in
  if cell < 0 then Array.unsafe_get t.base (base_index t pc)
  else Array.unsafe_get t.e_target cell

let allocate t ~above pc target =
  let found = ref (-1) in
  let i = ref above in
  while !found < 0 && !i < t.cfg.num_tables do
    let cell = (!i * t.tsize) + index t !i pc in
    if Array.unsafe_get t.e_u cell = 0 then found := cell else incr i
  done;
  let cell = !found in
  if cell >= 0 then begin
    let i = cell / t.tsize in
    Array.unsafe_set t.e_tag cell (tag_of t i pc);
    Array.unsafe_set t.e_target cell target;
    Array.unsafe_set t.e_conf cell 0;
    Array.unsafe_set t.e_u cell 0
  end
  else
    for i = above to t.cfg.num_tables - 1 do
      let cell = (i * t.tsize) + index t i pc in
      let u = Array.unsafe_get t.e_u cell in
      if u > 0 then Array.unsafe_set t.e_u cell (u - 1)
    done

let update t ~pc ~target =
  (let cell = find_provider_cell t pc in
   if cell >= 0 then begin
     if Array.unsafe_get t.e_target cell = target then begin
       let conf = Array.unsafe_get t.e_conf cell in
       if conf < 3 then Array.unsafe_set t.e_conf cell (conf + 1);
       let u = Array.unsafe_get t.e_u cell in
       if u < 3 then Array.unsafe_set t.e_u cell (u + 1)
     end
     else begin
       let conf = Array.unsafe_get t.e_conf cell in
       if conf > 0 then Array.unsafe_set t.e_conf cell (conf - 1)
       else begin
         Array.unsafe_set t.e_target cell target;
         let u = Array.unsafe_get t.e_u cell in
         if u > 0 then Array.unsafe_set t.e_u cell (u - 1);
         allocate t ~above:((cell / t.tsize) + 1) pc target
       end
     end
   end
   else begin
     let bi = base_index t pc in
     if t.base.(bi) >= 0 && t.base.(bi) <> target then allocate t ~above:0 pc target;
     t.base.(bi) <- target
   end);
  t.tick <- t.tick + 1;
  if t.tick land 0xffff = 0 then
    for cell = 0 to Array.length t.e_u - 1 do
      let u = Array.unsafe_get t.e_u cell in
      if u > 0 then Array.unsafe_set t.e_u cell (u - 1)
    done;
  (* path history: fold in the target's low bits *)
  t.history <- ((t.history lsl 3) lxor (target land 0x3f)) land 0x3fffffff

let reset t =
  Array.fill t.base 0 (Array.length t.base) (-1);
  Array.fill t.e_tag 0 (Array.length t.e_tag) (-1);
  Array.fill t.e_target 0 (Array.length t.e_target) 0;
  Array.fill t.e_conf 0 (Array.length t.e_conf) 0;
  Array.fill t.e_u 0 (Array.length t.e_u) 0;
  t.history <- 0;
  t.tick <- 0

let signature t =
  (* Fold order (base, then tables ascending, entries ascending) matches
     the record-based layout this replaced bit for bit. *)
  let acc = ref 77777 in
  Array.iter (fun b -> acc := (!acc * 31) + b + 2) t.base;
  for cell = 0 to Array.length t.e_tag - 1 do
    acc :=
      (!acc * 131)
      lxor (t.e_tag.(cell) + (t.e_target.(cell) lsl 3) + t.e_conf.(cell))
  done;
  !acc lxor t.history
