module Hierarchy = Sempe_mem.Hierarchy
module Predictor = Sempe_bpred.Predictor
module Btb = Sempe_bpred.Btb
module Ras = Sempe_bpred.Ras
module Ittage = Sempe_bpred.Ittage

type t = {
  hier : Hierarchy.t;
  bp : Predictor.t;
  btb : Btb.t;
  ras : Ras.t;
  ittage : Ittage.t;
  inst_bytes : int;
  word_bytes : int;
  il1_line_bytes : int;
  (* log2 of [il1_line_bytes] when it is a power of two (it always is for
     the paper's machines), [-1] to fall back to division: the fetch-line
     computation runs once per instruction in both execution modes. *)
  il1_line_shift : int;
  lat_l1 : int;
  mutable fetch_line : int;
}

let log2_pow2 n =
  if n > 0 && n land (n - 1) = 0 then begin
    let s = ref 0 in
    while 1 lsl !s < n do
      incr s
    done;
    !s
  end
  else -1

let create ?(machine = Config.default) ?predictor () =
  let bp =
    match predictor with Some p -> p | None -> Sempe_bpred.Tage.create ()
  in
  let hcfg = machine.Config.hierarchy in
  {
    hier = Hierarchy.create ~config:hcfg ();
    bp;
    btb = Btb.create ();
    ras = Ras.create ();
    ittage = Ittage.create ();
    inst_bytes = machine.Config.inst_bytes;
    word_bytes = machine.Config.word_bytes;
    il1_line_bytes = hcfg.Hierarchy.il1.Sempe_mem.Cache.line_bytes;
    il1_line_shift = log2_pow2 hcfg.Hierarchy.il1.Sempe_mem.Cache.line_bytes;
    lat_l1 = hcfg.Hierarchy.lat_l1;
    fetch_line = -1;
  }

let hierarchy t = t.hier
let predictor t = t.bp
let btb t = t.btb
let ras t = t.ras
let ittage t = t.ittage
let lat_l1 t = t.lat_l1
let fetch_line t = t.fetch_line

(* Inlines into each caller: a fetch from the current line costs a
   compare and touches no cache; only a new line calls into the IL1. *)
let[@inline] fetch t ~pc =
  let byte_addr = pc * t.inst_bytes in
  let line =
    if t.il1_line_shift >= 0 then byte_addr lsr t.il1_line_shift
    else byte_addr / t.il1_line_bytes
  in
  if line = t.fetch_line then 0
  else begin
    t.fetch_line <- line;
    let lat = Hierarchy.inst_fetch t.hier ~addr:byte_addr in
    lat - t.lat_l1
  end

let data t ~pc ~word_addr ~write =
  Hierarchy.data_access t.hier ~pc ~addr:(word_addr * t.word_bytes) ~write

type transfer = Btb_hit | Btb_miss

let taken_transfer t ~pc ~target =
  (* [Btb.find] touches the LRU exactly as [lookup] would; -1 (miss) never
     equals a real target, so the comparison is exact. *)
  let hit = if Btb.find t.btb ~pc = target then Btb_hit else Btb_miss in
  Btb.update t.btb ~pc ~target;
  hit

type cond =
  | Cond_correct_not_taken
  | Cond_correct_taken_hit
  | Cond_correct_taken_miss
  | Cond_mispredict

let cond_branch t ~pc ~taken ~target =
  let predicted = t.bp.Predictor.predict ~pc in
  t.bp.Predictor.update ~pc ~taken;
  if predicted <> taken then begin
    (* The resolved branch installs its target even on a mispredict:
       otherwise a taken branch first seen mispredicted keeps paying the
       BTB-miss bubble on every later correct prediction. *)
    if taken then Btb.update t.btb ~pc ~target;
    Cond_mispredict
  end
  else if taken then
    match taken_transfer t ~pc ~target with
    | Btb_hit -> Cond_correct_taken_hit
    | Btb_miss -> Cond_correct_taken_miss
  else Cond_correct_not_taken

type target_pred = Pred_hit | Pred_miss

let call t ~pc ~target ~return_to =
  Ras.push t.ras return_to;
  taken_transfer t ~pc ~target

let ret t ~target =
  (* -1 (empty stack) never equals a real return address *)
  if Ras.pop_value t.ras = target then Pred_hit else Pred_miss

let indirect t ~pc ~target =
  (* -1 (no known target) never equals a real target *)
  let predicted = Ittage.predict_value t.ittage ~pc in
  Ittage.update t.ittage ~pc ~target;
  if predicted = target then Pred_hit else Pred_miss

(* A closure-free image of the warm state. Every component except the
   direction predictor is already a record of flat arrays and scalars and
   is carried verbatim; the predictor — the one closure-holding component —
   contributes its name and its private plain-data state string. The image
   aliases the live structures, so it must be serialized (the only
   intended use) before the live [t] is stepped further. *)
type frozen = {
  z_hier : Hierarchy.t;
  z_bp_name : string;
  z_bp_state : string;
  z_btb : Btb.t;
  z_ras : Ras.t;
  z_ittage : Ittage.t;
  z_inst_bytes : int;
  z_word_bytes : int;
  z_il1_line_bytes : int;
  z_il1_line_shift : int;
  z_lat_l1 : int;
  z_fetch_line : int;
}

let freeze t =
  {
    z_hier = t.hier;
    z_bp_name = t.bp.Predictor.name;
    z_bp_state = t.bp.Predictor.save_state ();
    z_btb = t.btb;
    z_ras = t.ras;
    z_ittage = t.ittage;
    z_inst_bytes = t.inst_bytes;
    z_word_bytes = t.word_bytes;
    z_il1_line_bytes = t.il1_line_bytes;
    z_il1_line_shift = t.il1_line_shift;
    z_lat_l1 = t.lat_l1;
    z_fetch_line = t.fetch_line;
  }

let thaw ?predictor z =
  let bp =
    match predictor with Some p -> p | None -> Sempe_bpred.Tage.create ()
  in
  if bp.Predictor.name <> z.z_bp_name then
    invalid_arg
      (Printf.sprintf "Warm.thaw: frozen state is for predictor %S, not %S"
         z.z_bp_name bp.Predictor.name);
  bp.Predictor.load_state z.z_bp_state;
  {
    hier = z.z_hier;
    bp;
    btb = z.z_btb;
    ras = z.z_ras;
    ittage = z.z_ittage;
    inst_bytes = z.z_inst_bytes;
    word_bytes = z.z_word_bytes;
    il1_line_bytes = z.z_il1_line_bytes;
    il1_line_shift = z.z_il1_line_shift;
    lat_l1 = z.z_lat_l1;
    fetch_line = z.z_fetch_line;
  }

let predictor_signature t =
  (((t.bp.Predictor.snapshot_signature () * 31) + Btb.signature t.btb) * 31)
  + Ittage.signature t.ittage

let cache_signature t = Hierarchy.signature t.hier
