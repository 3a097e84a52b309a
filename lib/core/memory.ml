type t = { words : int; pages : int array array }

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let page_count words = (words + page_mask) lsr page_bits

(* Every page is full except possibly the last, which ends at [words]. *)
let page_words words i = Int.min page_size (words - (i lsl page_bits))

let create words =
  if words < 0 then invalid_arg "Memory.create";
  { words; pages = Array.make (page_count words) [||] }

let of_pages ~words pages =
  let ok =
    words >= 0
    && Array.length pages = page_count words
    && (let rec check i =
          i >= Array.length pages
          || (let n = Array.length pages.(i) in
              (n = 0 || n = page_words words i) && check (i + 1))
        in
        check 0)
  in
  if not ok then invalid_arg "Memory.of_pages";
  { words; pages }

let length m = m.words

let check_range m pos len name =
  if pos < 0 || len < 0 || pos > m.words - len then invalid_arg name

let get m a =
  check_range m a 1 "Memory.get";
  let p = Array.unsafe_get m.pages (a lsr page_bits) in
  let o = a land page_mask in
  if o < Array.length p then Array.unsafe_get p o else 0

let writable_page m i =
  let p = m.pages.(i) in
  if Array.length p > 0 then p
  else begin
    let p = Array.make (page_words m.words i) 0 in
    m.pages.(i) <- p;
    p
  end

let set m a v =
  check_range m a 1 "Memory.set";
  let i = a lsr page_bits in
  let p = Array.unsafe_get m.pages i in
  let o = a land page_mask in
  if o < Array.length p then Array.unsafe_set p o v
  else if v <> 0 then (writable_page m i).(o) <- v

let all_zero a pos len =
  let rec go i = i >= pos + len || (a.(i) = 0 && go (i + 1)) in
  go pos

(* Both bulk copies below walk the range one page-sized chunk at a time. *)
let blit_array src src_pos m dst_pos len =
  if src_pos < 0 || src_pos > Array.length src - len then
    invalid_arg "Memory.blit_array";
  check_range m dst_pos len "Memory.blit_array";
  let rec go s d n =
    if n > 0 then begin
      let i = d lsr page_bits and o = d land page_mask in
      let k = Int.min n (page_size - o) in
      if Array.length m.pages.(i) > 0 || not (all_zero src s k) then
        Array.blit src s (writable_page m i) o k;
      go (s + k) (d + k) (n - k)
    end
  in
  go src_pos dst_pos len

let sub m pos len =
  check_range m pos len "Memory.sub";
  let r = Array.make len 0 in
  let rec go d n =
    if n > 0 then begin
      let a = pos + d in
      let o = a land page_mask in
      let k = Int.min n (page_size - o) in
      let p = m.pages.(a lsr page_bits) in
      if Array.length p > 0 then Array.blit p o r d k;
      go (d + k) (n - k)
    end
  in
  go 0 len;
  r

let iter_nonzero f m =
  Array.iteri
    (fun i p ->
      let base = i lsl page_bits in
      for o = 0 to Array.length p - 1 do
        let v = Array.unsafe_get p o in
        if v <> 0 then f (base + o) v
      done)
    m.pages

let equal a b =
  let page_equal p q =
    if Array.length p = 0 then all_zero q 0 (Array.length q)
    else if Array.length q = 0 then all_zero p 0 (Array.length p)
    else Array.for_all2 (fun (x : int) y -> x = y) p q
  in
  a.words = b.words && Array.for_all2 page_equal a.pages b.pages

let allocated_pages m =
  Array.fold_left (fun n p -> if Array.length p > 0 then n + 1 else n) 0 m.pages
