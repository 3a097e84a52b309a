(* Reference model for the timing model's issue/load-port counters
   ([lib/pipeline/ports.ml]): per-cycle use counts in an unbounded hash
   table. No ring, no tags, no floor, nothing is ever forgotten, so it is
   exact by construction. [Test_ref_equiv] drives this and the production
   ring through identical request streams and requires identical claimed
   cycles. Keep it this naive; its value is that it cannot alias. *)

type t = { used : (int, int) Hashtbl.t; cap : int }

let create cap = { used = Hashtbl.create 1024; cap }

(* Earliest cycle >= [c] with fewer than [cap] claims; claims it. *)
let rec alloc t c =
  let u = Option.value (Hashtbl.find_opt t.used c) ~default:0 in
  if u < t.cap then begin
    Hashtbl.replace t.used c (u + 1);
    c
  end
  else alloc t (c + 1)
