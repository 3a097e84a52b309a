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
    num_tables = 6;
    table_bits = 10;
    tag_bits = 9;
    min_history = 4;
    max_history = 128;
    base_bits = 12;
  }

(* All tagged-component state lives in flat packed int arrays indexed
   [table * (1 lsl table_bits) + entry] instead of per-table arrays of
   entry records: a prediction walks a handful of int-array cells with no
   pointer chasing, and checkpointing a warmed predictor marshals three
   int arrays instead of a graph of thousands of records.

   e_ctr is a 3-bit signed counter in [-4, 3]; taken iff ctr >= 0.
   e_u is a 2-bit usefulness counter.

   The folded history registers (Seznec's circular shift registers, one
   index fold and two tag folds per table) are flattened the same way:
   their current values sit in [f_idx]/[f_tag1]/[f_tag2] and are updated
   incrementally — one xor per shifted-in bit — by [push_history], with
   the per-table output bit positions precomputed in [op_*]. *)
type t = {
  cfg : config;
  base : Counters.t;
  tsize : int; (* 1 lsl table_bits *)
  e_tag : int array; (* num_tables * tsize *)
  e_ctr : int array;
  e_u : int array;
  hist_len : int array; (* per-table geometric history lengths *)
  f_idx : int array; (* folded index register values, one per table *)
  f_tag1 : int array;
  f_tag2 : int array;
  op_idx : int array; (* hist_len mod fold width, per table *)
  op_tag1 : int array;
  op_tag2 : int array;
  history : Bytes.t; (* circular buffer of outcome bits *)
  mutable head : int; (* next write position *)
  mutable use_alt_on_new : int; (* 4-bit counter biasing weak entries *)
  mutable tick : int; (* aging clock for usefulness counters *)
}

let history_capacity = 1024

let geometric_lengths cfg =
  (* L(i) = min * (max/min)^(i/(n-1)), rounded, strictly increasing. *)
  let n = cfg.num_tables in
  let ratio =
    if n = 1 then 1.0
    else
      (float_of_int cfg.max_history /. float_of_int cfg.min_history)
      ** (1.0 /. float_of_int (n - 1))
  in
  let lens = Array.make n 0 in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let l =
      int_of_float (Float.round (float_of_int cfg.min_history *. (ratio ** float_of_int i)))
    in
    let l = max l (!prev + 1) in
    lens.(i) <- l;
    prev := l
  done;
  lens

let make cfg =
  let lens = geometric_lengths cfg in
  let n = cfg.num_tables in
  let tsize = 1 lsl cfg.table_bits in
  {
    cfg;
    base = Counters.create ~entries:(1 lsl cfg.base_bits) ~bits:2;
    tsize;
    e_tag = Array.make (n * tsize) 0;
    e_ctr = Array.make (n * tsize) 0;
    e_u = Array.make (n * tsize) 0;
    hist_len = lens;
    f_idx = Array.make n 0;
    f_tag1 = Array.make n 0;
    f_tag2 = Array.make n 0;
    op_idx = Array.init n (fun i -> lens.(i) mod cfg.table_bits);
    op_tag1 = Array.init n (fun i -> lens.(i) mod cfg.tag_bits);
    op_tag2 = Array.init n (fun i -> lens.(i) mod (cfg.tag_bits - 1));
    history = Bytes.make history_capacity '\000';
    head = 0;
    use_alt_on_new = 8;
    tick = 0;
  }

let push_history t bit =
  (* Update every folded register before shifting the raw history. This
     runs once per committed conditional branch in both execution modes,
     with [folded_step] written out inline (3 registers x num_tables calls
     per branch add up) and every record field hoisted out of the loop. *)
  let wi = t.cfg.table_bits and wt1 = t.cfg.tag_bits in
  let wt2 = t.cfg.tag_bits - 1 in
  let mi = (1 lsl wi) - 1 and m1 = (1 lsl wt1) - 1 and m2 = (1 lsl wt2) - 1 in
  let f_idx = t.f_idx and f_tag1 = t.f_tag1 and f_tag2 = t.f_tag2 in
  let op_idx = t.op_idx and op_tag1 = t.op_tag1 and op_tag2 = t.op_tag2 in
  let hist_len = t.hist_len in
  let history = t.history in
  let head = t.head in
  let hmask = history_capacity - 1 in
  for i = 0 to t.cfg.num_tables - 1 do
    let evicted =
      let pos =
        (head - Array.unsafe_get hist_len i + (2 * history_capacity)) land hmask
      in
      Char.code (Bytes.unsafe_get history pos)
    in
    let v = Array.unsafe_get f_idx i in
    let v' = ((v lsl 1) lor bit) land mi in
    let v' = v' lxor ((v lsr (wi - 1)) land 1) in
    Array.unsafe_set f_idx i
      ((v' lxor (evicted lsl Array.unsafe_get op_idx i)) land mi);
    let v = Array.unsafe_get f_tag1 i in
    let v' = ((v lsl 1) lor bit) land m1 in
    let v' = v' lxor ((v lsr (wt1 - 1)) land 1) in
    Array.unsafe_set f_tag1 i
      ((v' lxor (evicted lsl Array.unsafe_get op_tag1 i)) land m1);
    let v = Array.unsafe_get f_tag2 i in
    let v' = ((v lsl 1) lor bit) land m2 in
    let v' = v' lxor ((v lsr (wt2 - 1)) land 1) in
    Array.unsafe_set f_tag2 i
      ((v' lxor (evicted lsl Array.unsafe_get op_tag2 i)) land m2)
  done;
  Bytes.unsafe_set history head (Char.unsafe_chr bit);
  t.head <- (head + 1) land hmask

let table_index t i pc =
  let mask = t.tsize - 1 in
  (pc lxor (pc lsr (t.cfg.table_bits - i)) lxor Array.unsafe_get t.f_idx i)
  land mask

let table_tag t i pc =
  let mask = (1 lsl t.cfg.tag_bits) - 1 in
  (pc lxor Array.unsafe_get t.f_tag1 i lxor (Array.unsafe_get t.f_tag2 i lsl 1))
  land mask

(* Scratch lookup, preallocated per predictor instance and refilled in
   place by [lookup]: prediction runs once per committed conditional
   branch in both execution modes, and an immutable result record (plus
   the options inside it) would allocate there. -1 encodes "no matching
   component". [provider_idx]/[alt_idx] are flat cell indices
   (table * tsize + entry). *)
type lookup = {
  mutable provider : int; (* table index of the matching component *)
  mutable provider_idx : int;
  mutable alt : int; (* next-longest matching component *)
  mutable alt_idx : int;
  mutable base_idx : int;
}

let lookup t lk pc =
  lk.base_idx <- pc land ((1 lsl t.cfg.base_bits) - 1);
  lk.provider <- -1;
  lk.provider_idx <- 0;
  lk.alt <- -1;
  lk.alt_idx <- 0;
  (* While-loop scan from the longest table down, stopping once both the
     provider and alternate are known (a local [let rec] would allocate a
     closure per prediction without flambda). [table_index]/[table_tag]
     are written out inline with record fields hoisted: this runs once
     per committed conditional branch in both execution modes. *)
  let e_tag = t.e_tag and tsize = t.tsize in
  let f_idx = t.f_idx and f_tag1 = t.f_tag1 and f_tag2 = t.f_tag2 in
  let tbits = t.cfg.table_bits in
  let imask = tsize - 1 and tmask = (1 lsl t.cfg.tag_bits) - 1 in
  let i = ref (t.cfg.num_tables - 1) in
  while !i >= 0 && lk.alt < 0 do
    let j = !i in
    let idx =
      (pc lxor (pc lsr (tbits - j)) lxor Array.unsafe_get f_idx j) land imask
    in
    let cell = (j * tsize) + idx in
    let tag =
      (pc lxor Array.unsafe_get f_tag1 j lxor (Array.unsafe_get f_tag2 j lsl 1))
      land tmask
    in
    if Array.unsafe_get e_tag cell = tag then
      if lk.provider < 0 then begin
        lk.provider <- j;
        lk.provider_idx <- cell
      end
      else begin
        lk.alt <- j;
        lk.alt_idx <- cell
      end;
    decr i
  done

let alt_pred t lk =
  if lk.alt >= 0 then Array.unsafe_get t.e_ctr lk.alt_idx >= 0
  else Counters.taken t.base lk.base_idx

let is_weak_ctr c = c = 0 || c = -1

let predict_with t lk pc =
  lookup t lk pc;
  if lk.provider < 0 then Counters.taken t.base lk.base_idx
  else begin
    let ctr = Array.unsafe_get t.e_ctr lk.provider_idx in
    if
      is_weak_ctr ctr
      && Array.unsafe_get t.e_u lk.provider_idx = 0
      && t.use_alt_on_new >= 8
    then alt_pred t lk
    else ctr >= 0
  end

let sat_update t cell taken =
  let c = Array.unsafe_get t.e_ctr cell in
  if taken then (if c < 3 then Array.unsafe_set t.e_ctr cell (c + 1))
  else if c > -4 then Array.unsafe_set t.e_ctr cell (c - 1)

let allocate t lk pc taken =
  (* Try to claim a u=0 entry in a table longer than the provider. *)
  let start = if lk.provider >= 0 then lk.provider + 1 else 0 in
  let found = ref (-1) in
  let i = ref start in
  while !found < 0 && !i < t.cfg.num_tables do
    let cell = (!i * t.tsize) + table_index t !i pc in
    if Array.unsafe_get t.e_u cell = 0 then found := cell else incr i
  done;
  let cell = !found in
  if cell >= 0 then begin
    let i = cell / t.tsize in
    Array.unsafe_set t.e_tag cell (table_tag t i pc);
    Array.unsafe_set t.e_ctr cell (if taken then 0 else -1);
    Array.unsafe_set t.e_u cell 0
  end
  else
    (* Decay usefulness along the allocation path so progress is possible. *)
    for i = start to t.cfg.num_tables - 1 do
      let cell = (i * t.tsize) + table_index t i pc in
      let u = Array.unsafe_get t.e_u cell in
      if u > 0 then Array.unsafe_set t.e_u cell (u - 1)
    done

let age_usefulness t =
  t.tick <- t.tick + 1;
  if t.tick land 0x3ffff = 0 then
    for cell = 0 to Array.length t.e_u - 1 do
      let u = Array.unsafe_get t.e_u cell in
      if u > 0 then Array.unsafe_set t.e_u cell (u - 1)
    done

let update_with t lk pred pc taken =
  let altp = alt_pred t lk in
  (if lk.provider < 0 then begin
     Counters.train t.base lk.base_idx taken;
     if pred <> taken then allocate t lk pc taken
   end
   else begin
     let cell = lk.provider_idx in
     let ctr = Array.unsafe_get t.e_ctr cell in
     let provider_pred = ctr >= 0 in
     (* Track whether trusting weak new entries beats the alternate. *)
     if
       is_weak_ctr ctr
       && Array.unsafe_get t.e_u cell = 0
       && provider_pred <> altp
     then begin
       if altp = taken then begin
         if t.use_alt_on_new < 15 then t.use_alt_on_new <- t.use_alt_on_new + 1
       end
       else if t.use_alt_on_new > 0 then t.use_alt_on_new <- t.use_alt_on_new - 1
     end;
     sat_update t cell taken;
     if altp <> provider_pred then begin
       let u = Array.unsafe_get t.e_u cell in
       if provider_pred = taken then
         (if u < 3 then Array.unsafe_set t.e_u cell (u + 1))
       else if u > 0 then Array.unsafe_set t.e_u cell (u - 1)
     end;
     if lk.alt < 0 then Counters.train t.base lk.base_idx taken;
     if pred <> taken then allocate t lk pc taken
   end);
  age_usefulness t;
  push_history t (if taken then 1 else 0)

let signature t =
  (* Fold order (tables ascending, entries ascending) matches the
     record-based reference implementation bit for bit. *)
  let acc = ref (Counters.signature t.base) in
  for cell = 0 to Array.length t.e_tag - 1 do
    acc :=
      (!acc * 31)
      + (t.e_tag.(cell) lxor (t.e_ctr.(cell) + 4) lxor (t.e_u.(cell) lsl 16))
  done;
  !acc lxor t.head

let create ?(config = default_config) () =
  let t = make config in
  (* The protocol is strictly predict-then-update per branch (both
     execution modes go through [Warm.cond_branch]), and only [update]
     and [reset] mutate predictor state — so the lookup [update] needs is
     exactly the one [predict] just computed. Memoize it: the re-lookup
     was the single most expensive part of the update path. The scratch
     lookup and the memo cells live in the closures only, outside the
     saved state: [reset] and [load_state] mark the memo stale.
     [memo_pc = -1] means "stale": [lk] may not describe [pc], so update
     recomputes (refilling [lk] in place). *)
  let lk = { provider = -1; provider_idx = 0; alt = -1; alt_idx = 0; base_idx = 0 } in
  let memo_pc = ref (-1) in
  let memo_pred = ref false in
  {
    Predictor.name = "tage";
    predict =
      (fun ~pc ->
        let p = predict_with t lk pc in
        memo_pc := pc;
        memo_pred := p;
        p);
    update =
      (fun ~pc ~taken ->
        let pred =
          if !memo_pc = pc then !memo_pred else predict_with t lk pc
        in
        memo_pc := -1;
        update_with t lk pred pc taken);
    reset =
      (fun () ->
        memo_pc := -1;
        Counters.reset t.base;
        Array.fill t.e_tag 0 (Array.length t.e_tag) 0;
        Array.fill t.e_ctr 0 (Array.length t.e_ctr) 0;
        Array.fill t.e_u 0 (Array.length t.e_u) 0;
        Array.fill t.f_idx 0 (Array.length t.f_idx) 0;
        Array.fill t.f_tag1 0 (Array.length t.f_tag1) 0;
        Array.fill t.f_tag2 0 (Array.length t.f_tag2) 0;
        Bytes.fill t.history 0 history_capacity '\000';
        t.head <- 0;
        t.use_alt_on_new <- 8;
        t.tick <- 0);
    snapshot_signature = (fun () -> signature t);
    save_state =
      (* The internal record is plain data (flat arrays, bytes, scalars),
         so it marshals without [Closures] — the closures of this
         [Predictor.t] are not part of the checkpoint. *)
      (fun () -> Marshal.to_string t []);
    load_state =
      (fun s ->
        let t' = (Marshal.from_string s 0 : t) in
        if t'.cfg <> t.cfg then invalid_arg "Tage.load_state: config mismatch";
        Counters.copy_into ~src:t'.base ~dst:t.base;
        Array.blit t'.e_tag 0 t.e_tag 0 (Array.length t.e_tag);
        Array.blit t'.e_ctr 0 t.e_ctr 0 (Array.length t.e_ctr);
        Array.blit t'.e_u 0 t.e_u 0 (Array.length t.e_u);
        Array.blit t'.f_idx 0 t.f_idx 0 (Array.length t.f_idx);
        Array.blit t'.f_tag1 0 t.f_tag1 0 (Array.length t.f_tag1);
        Array.blit t'.f_tag2 0 t.f_tag2 0 (Array.length t.f_tag2);
        Bytes.blit t'.history 0 t.history 0 history_capacity;
        t.head <- t'.head;
        t.use_alt_on_new <- t'.use_alt_on_new;
        t.tick <- t'.tick;
        memo_pc := -1);
  }
