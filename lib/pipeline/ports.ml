(* Tagged ring of per-cycle use counts: slot [i] holds [use.(i)] claims
   of cycle [tag.(i)], and cycle [c] lives in slot [c land mask]. Every
   claimed cycle lies in the live window [floor, floor + mask], which the
   ring covers with distinct slots, so a slot whose tag is not [c] holds
   a dead cycle (below [floor]) or nothing: [c] has no claims yet. *)
type t = {
  mutable use : int array;
  mutable tag : int array;
  mutable mask : int;
  mutable floor : int;
  cap : int;
}

let initial_slots = 256

let create cap =
  if cap < 1 then invalid_arg "Ports.create: cap < 1";
  {
    use = Array.make initial_slots 0;
    tag = Array.make initial_slots (-1);
    mask = initial_slots - 1;
    floor = 0;
    cap;
  }

let slots t = t.mask + 1

(* Double until cycle [c] fits the window above [floor], re-inserting only
   the live slots. They all lie in [floor, floor + old mask], a span no
   wider than the new ring, so re-insertion never collides. *)
let grow t ~floor c =
  let size = ref (2 * (t.mask + 1)) in
  while c - floor >= !size do
    size := 2 * !size
  done;
  let size = !size in
  let use = Array.make size 0 and tag = Array.make size (-1) in
  let mask = size - 1 in
  Array.iteri
    (fun i cy ->
      if cy >= floor then begin
        Array.unsafe_set tag (cy land mask) cy;
        Array.unsafe_set use (cy land mask) (Array.unsafe_get t.use i)
      end)
    t.tag;
  t.use <- use;
  t.tag <- tag;
  t.mask <- mask

(* The slow path, out of line: [c] lies beyond the window, or its slot is
   full and the claim moves on to later cycles. While-loop, because a
   local [let rec] would allocate a closure per call; the growth check is
   one compare per probed cycle. *)
let alloc_slow t ~floor c =
  let c = ref c in
  let claimed = ref false in
  while not !claimed do
    if !c - floor > t.mask then grow t ~floor !c;
    let use = t.use and tag = t.tag in
    let i = !c land t.mask in
    if Array.unsafe_get tag i <> !c then begin
      Array.unsafe_set tag i !c;
      Array.unsafe_set use i 1;
      claimed := true
    end
    else begin
      let u = Array.unsafe_get use i in
      if u < t.cap then begin
        Array.unsafe_set use i (u + 1);
        claimed := true
      end
      else incr c
    end
  done;
  !c

(* The fast path inlines into each caller: both contract checks, then a
   claim of [c] itself when it lies in the window and its slot has room.
   Anything else leaves for [alloc_slow]. *)
let[@inline] alloc t ~floor c =
  if floor < t.floor then invalid_arg "Ports.alloc: floor fell";
  if c < floor then invalid_arg "Ports.alloc: request below floor";
  t.floor <- floor;
  if c - floor > t.mask then alloc_slow t ~floor c
  else begin
    let i = c land t.mask in
    if Array.unsafe_get t.tag i <> c then begin
      Array.unsafe_set t.tag i c;
      Array.unsafe_set t.use i 1;
      c
    end
    else begin
      let u = Array.unsafe_get t.use i in
      if u < t.cap then begin
        Array.unsafe_set t.use i (u + 1);
        c
      end
      else alloc_slow t ~floor (c + 1)
    end
  end
