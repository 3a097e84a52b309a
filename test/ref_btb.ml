(* Reference model: the branch target buffer as plain records. Each set
   is a list of at most [ways] entries that remember their full pc, so
   there are no tags, no way slots and no invalid-way encoding — only
   the policy [lib/bpred/btb.ml] packs into flat arrays: a set-indexed,
   LRU-replaced cache of targets, where a hit in [find] and every
   [update] take a fresh stamp from one clock. [Test_ref_equiv] drives
   this and the production BTB through identical streams and requires
   identical [find] results. *)

type entry = { pc : int; mutable target : int; mutable stamp : int }

type t = { ways : int; sets : entry list array; mutable clock : int }

let create ~entries ~ways = { ways; sets = Array.make (entries / ways) []; clock = 0 }

let set_of t pc = pc mod Array.length t.sets

let find t ~pc =
  match List.find_opt (fun e -> e.pc = pc) t.sets.(set_of t pc) with
  | Some e ->
    t.clock <- t.clock + 1;
    e.stamp <- t.clock;
    e.target
  | None -> -1

let update t ~pc ~target =
  t.clock <- t.clock + 1;
  let s = set_of t pc in
  let set = t.sets.(s) in
  match List.find_opt (fun e -> e.pc = pc) set with
  | Some e ->
    e.target <- target;
    e.stamp <- t.clock
  | None ->
    let fresh = { pc; target; stamp = t.clock } in
    if List.length set < t.ways then t.sets.(s) <- fresh :: set
    else begin
      (* Every stamp comes from a distinct clock tick, so the least
         recently used entry is unique. *)
      let lru =
        List.fold_left (fun a e -> if e.stamp < a.stamp then e else a)
          (List.hd set) set
      in
      t.sets.(s) <- fresh :: List.filter (fun e -> e != lru) set
    end
