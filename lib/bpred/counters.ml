type t = { table : int array; max : int; mid : int }

let create ~entries ~bits =
  assert (entries > 0 && bits >= 1 && bits <= 8);
  let max = (1 lsl bits) - 1 in
  let mid = 1 lsl (bits - 1) in
  { table = Array.make entries (mid - 1); max; mid }

let entries t = Array.length t.table

let taken t i = t.table.(i) >= t.mid

let train t i dir =
  if dir then begin
    if t.table.(i) < t.max then t.table.(i) <- t.table.(i) + 1
  end
  else if t.table.(i) > 0 then t.table.(i) <- t.table.(i) - 1

let reset t = Array.fill t.table 0 (Array.length t.table) (t.mid - 1)

let signature t =
  Array.fold_left (fun acc v -> (acc * 31) + v + 1) 17 t.table
