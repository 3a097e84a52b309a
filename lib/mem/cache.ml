open Sempe_util

type config = {
  name : string;
  size_bytes : int;
  line_bytes : int;
  ways : int;
}

(* The per-line state lives in two flat packed int arrays indexed
   [set * ways + way] instead of an array-of-arrays of line records: one
   cache access touches one contiguous handful of words instead of
   chasing a set pointer and then one boxed record per way. [tags.(i)]
   = -1 encodes invalid; [lru.(i)] is the global-clock stamp of the
   line's last touch. The packed layout is also what makes checkpointing
   a warmed cache a plain array copy for [Marshal] instead of a graph of
   thousands of records. *)
type t = {
  cfg : config;
  nsets : int;
  ways : int;
  tags : int array; (* nsets * ways; -1 = invalid *)
  lru : int array; (* nsets * ways; last-touch clock stamp *)
  (* [addr / line_bytes] and [... / num_sets] as shifts when both are
     powers of two (they always are for the paper's machines; [-1] falls
     back to division). Addresses are non-negative, so the results are
     identical — this is on the per-access hot path of both execution
     modes. *)
  line_shift : int;
  set_shift : int;
  mutable clock : int;
  group : Stats.group;
  c_accesses : Stats.counter;
  c_misses : Stats.counter;
  c_writes : Stats.counter;
  c_prefetch_fills : Stats.counter;
  c_evictions : Stats.counter;
}

type outcome = Hit | Miss

let log2_pow2 n =
  if n > 0 && n land (n - 1) = 0 then begin
    let s = ref 0 in
    while 1 lsl !s < n do
      incr s
    done;
    !s
  end
  else -1

let create cfg =
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines mod cfg.ways <> 0 then invalid_arg "Cache.create: lines not divisible by ways";
  let nsets = lines / cfg.ways in
  if nsets land (nsets - 1) <> 0 then invalid_arg "Cache.create: sets not a power of two";
  let group = Stats.group cfg.name in
  {
    cfg;
    nsets;
    ways = cfg.ways;
    tags = Array.make lines (-1);
    lru = Array.make lines 0;
    line_shift = log2_pow2 cfg.line_bytes;
    set_shift = log2_pow2 nsets;
    clock = 0;
    group;
    c_accesses = Stats.counter group "accesses";
    c_misses = Stats.counter group "misses";
    c_writes = Stats.counter group "writes";
    c_prefetch_fills = Stats.counter group "prefetch_fills";
    c_evictions = Stats.counter group "evictions";
  }

let config t = t.cfg
let num_sets t = t.nsets

let[@inline] line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.cfg.line_bytes

let[@inline] set_index t ~addr = line_of t addr land (t.nsets - 1)

let[@inline] tag_of t addr =
  let line = line_of t addr in
  if t.set_shift >= 0 then line lsr t.set_shift else line / t.nsets

(* [set_index] is masked to [nsets - 1] and the scans below are bounded by
   [base + ways <= nsets * ways], so the unsafe accesses are in bounds by
   construction. This is the per-access hot path of both execution modes,
   hence also the allocation-free scans instead of option-returning
   finds. *)
let[@inline] set_base t ~addr = set_index t ~addr * t.ways

(* The scans below are while-loops over local refs rather than local
   recursive functions: without flambda a [let rec] capturing its
   surroundings allocates a closure per call, and these run on the
   per-access hot path (non-escaping refs are compiled to mutable
   variables). *)
let mem t base tag =
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  !i < stop

(* First way with the minimum stamp, matching the record-based reference
   (fold kept the earlier way on ties). *)
let lru_victim t base =
  let stop = base + t.ways in
  let best = ref base in
  let best_lru = ref (Array.unsafe_get t.lru base) in
  for i = base + 1 to stop - 1 do
    let l = Array.unsafe_get t.lru i in
    if l < !best_lru then begin
      best := i;
      best_lru := l
    end
  done;
  !best

let install t base tag =
  let v = lru_victim t base in
  if Array.unsafe_get t.tags v >= 0 then Stats.incr t.c_evictions;
  Array.unsafe_set t.tags v tag;
  t.clock <- t.clock + 1;
  Array.unsafe_set t.lru v t.clock

let access t ~addr ~write =
  Stats.incr t.c_accesses;
  if write then Stats.incr t.c_writes;
  let base = set_base t ~addr and tag = tag_of t addr in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  if !i < stop then begin
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru !i t.clock;
    Hit
  end
  else begin
    Stats.incr t.c_misses;
    install t base tag;
    Miss
  end

let prefetch_fill t ~addr =
  let base = set_base t ~addr and tag = tag_of t addr in
  if mem t base tag then false
  else begin
    Stats.incr t.c_prefetch_fills;
    install t base tag;
    true
  end

let probe t ~addr =
  let base = set_base t ~addr and tag = tag_of t addr in
  mem t base tag

(* Rank of way [i] within its set: the number of strictly more-recent
   lines. Valid lines carry distinct clock stamps, so ranks of valid
   lines are distinct. *)
let rank_of t base stop i =
  let li = Array.unsafe_get t.lru i in
  let rank = ref 0 in
  for j = base to stop - 1 do
    if Array.unsafe_get t.lru j > li then incr rank
  done;
  !rank

let resident_tags t set_idx =
  (* Direct rank scan over the packed arrays (no copy, no sort): way of
     rank 0 is the MRU. Quadratic in [ways], which is tiny; this runs
     thousands of times inside warm-state fidelity tests. *)
  let base = set_idx * t.ways in
  let stop = base + t.ways in
  let rec emit rank acc =
    if rank < 0 then acc
    else
      let rec find i =
        if i >= stop then None
        else if Array.unsafe_get t.tags i >= 0 && rank_of t base stop i = rank
        then Some (Array.unsafe_get t.tags i)
        else find (i + 1)
      in
      match find base with
      | Some tag -> emit (rank - 1) (tag :: acc)
      | None -> emit (rank - 1) acc
  in
  (* built from the largest rank down, so the head ends up the MRU *)
  emit (t.ways - 1) []

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.clock <- 0

let stats t = t.group

let miss_rate t =
  Stats.ratio ~num:(Stats.value t.c_misses) ~den:(Stats.value t.c_accesses)

let signature t =
  (* Hashes the per-set LRU ranking alongside the tags: two caches with the
     same resident lines but divergent replacement order must not collide,
     or the warm-state fidelity checks cannot see recency drift. The rank
     (number of strictly more-recent lines in the set) rather than the raw
     [lru] clock keeps the hash independent of access counts. Fold order
     (sets ascending, ways ascending) matches the record-based reference
     bit for bit. Plain loops over a local ref: no closure, so a report's
     three signatures allocate nothing. *)
  let acc = ref 2166136261 in
  for s = 0 to t.nsets - 1 do
    let base = s * t.ways in
    let stop = base + t.ways in
    for i = base to stop - 1 do
      acc := (!acc * 16777619) lxor (t.tags.(i) + 2);
      acc := (!acc * 16777619) lxor rank_of t base stop i
    done
  done;
  !acc
