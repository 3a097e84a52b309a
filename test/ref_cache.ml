(* Reference model: the original record-based set-associative cache,
   kept verbatim from before the packed-array rewrite of
   [lib/mem/cache.ml]. Each line is a heap record with mutable [tag] and
   [lru] fields — slow, but obviously correct and independent of the
   packed layout's index arithmetic. [Test_ref_equiv] drives this and
   the production cache through identical operation streams and requires
   identical outcomes, resident-tag listings, event counts, and state
   signatures. Do not "optimize" this file; its value is that its
   replacement policy never changed. Its five event counts are plain
   fields, read through the same accessors as the production cache's. *)

type config = Sempe_mem.Cache.config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
}

type line = { mutable tag : int; mutable lru : int }
(* tag = -1 encodes invalid. *)

type t = {
  cfg : config;
  sets : line array array;
  line_shift : int;
  set_shift : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable writes : int;
  mutable prefetch_fills : int;
  mutable evictions : int;
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
  if lines mod cfg.ways <> 0 then
    invalid_arg "Ref_cache.create: lines not divisible by ways";
  let nsets = lines / cfg.ways in
  if nsets land (nsets - 1) <> 0 then
    invalid_arg "Ref_cache.create: sets not a power of two";
  {
    cfg;
    sets =
      Array.init nsets (fun _ ->
          Array.init cfg.ways (fun _ -> { tag = -1; lru = 0 }));
    line_shift = log2_pow2 cfg.line_bytes;
    set_shift = log2_pow2 nsets;
    clock = 0;
    accesses = 0;
    misses = 0;
    writes = 0;
    prefetch_fills = 0;
    evictions = 0;
  }

let num_sets t = Array.length t.sets

let line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.cfg.line_bytes

let set_index t ~addr = line_of t addr land (num_sets t - 1)

let tag_of t addr =
  let line = line_of t addr in
  if t.set_shift >= 0 then line lsr t.set_shift else line / num_sets t

let set_of t ~addr = t.sets.(set_index t ~addr)

let mem set tag = Array.exists (fun l -> l.tag = tag) set

let lru_victim set =
  Array.fold_left (fun best l -> if l.lru < best.lru then l else best) set.(0) set

let install t set tag =
  let victim = lru_victim set in
  if victim.tag >= 0 then t.evictions <- t.evictions + 1;
  victim.tag <- tag;
  t.clock <- t.clock + 1;
  victim.lru <- t.clock

let access t ~addr ~write =
  t.accesses <- t.accesses + 1;
  if write then t.writes <- t.writes + 1;
  let set = set_of t ~addr and tag = tag_of t addr in
  match Array.find_opt (fun l -> l.tag = tag) set with
  | Some line ->
    t.clock <- t.clock + 1;
    line.lru <- t.clock;
    Hit
  | None ->
    t.misses <- t.misses + 1;
    install t set tag;
    Miss

let prefetch_fill t ~addr =
  let set = set_of t ~addr and tag = tag_of t addr in
  if mem set tag then false
  else begin
    t.prefetch_fills <- t.prefetch_fills + 1;
    install t set tag;
    true
  end

let probe t ~addr =
  let set = set_of t ~addr and tag = tag_of t addr in
  mem set tag

let resident_tags t set_idx =
  let set = t.sets.(set_idx) in
  let lines = Array.to_list (Array.copy set) in
  let valid = List.filter (fun l -> l.tag >= 0) lines in
  let sorted = List.sort (fun a b -> compare b.lru a.lru) valid in
  List.map (fun l -> l.tag) sorted

let flush t =
  Array.iter
    (fun set ->
      Array.iter
        (fun l ->
          l.tag <- -1;
          l.lru <- 0)
        set)
    t.sets;
  t.clock <- 0

let accesses t = t.accesses
let misses t = t.misses
let writes t = t.writes
let prefetch_fills t = t.prefetch_fills
let evictions t = t.evictions

let signature t =
  (* Hashes the per-set LRU ranking alongside the tags; the rank (number
     of strictly more-recent lines in the set) rather than the raw [lru]
     clock keeps the hash independent of access counts. *)
  let acc = ref 2166136261 in
  let mix x = acc := (!acc * 16777619) lxor x in
  Array.iter
    (fun set ->
      let n = Array.length set in
      for i = 0 to n - 1 do
        let l = set.(i) in
        let rank = ref 0 in
        for j = 0 to n - 1 do
          if set.(j).lru > l.lru then incr rank
        done;
        mix (l.tag + 2);
        mix !rank
      done)
    t.sets;
  !acc
