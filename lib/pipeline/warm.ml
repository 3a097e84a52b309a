module Hierarchy = Sempe_mem.Hierarchy
module Tage = Sempe_bpred.Tage
module Btb = Sempe_bpred.Btb
module Ras = Sempe_bpred.Ras
module Ittage = Sempe_bpred.Ittage

type t = {
  hier : Hierarchy.t;
  bp : Tage.t;
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

let create ?(machine = Config.default) () =
  let hcfg = machine.Config.hierarchy in
  {
    hier = Hierarchy.create ~config:hcfg ();
    bp = Tage.create ();
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
  let predicted = Tage.resolve t.bp ~pc ~taken in
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

let predictor_signature t =
  (((Tage.signature t.bp * 31) + Btb.signature t.btb) * 31)
  + Ittage.signature t.ittage

let cache_signature t = Hierarchy.signature t.hier
