module Probe = Sempe_pipeline.Probe
module Uop = Sempe_pipeline.Uop
module Tablefmt = Sempe_util.Tablefmt

(* One exact count per static pc. The keys are the program's own pcs
   (plus -1 for an unattributed drain), so the program bounds each
   table. *)
type table = (int, int) Hashtbl.t

type t = {
  branch_mispredicts : table;
  branch_executions : table;
  load_misses : table;
  sjmp_drains : table;
  sjmp_spm_cycles : table;
  mutable sjmp_stack : int list;
  mutable uops : int;
  mutable drains : int;
}

let create () =
  {
    branch_mispredicts = Hashtbl.create 64;
    branch_executions = Hashtbl.create 64;
    load_misses = Hashtbl.create 64;
    sjmp_drains = Hashtbl.create 64;
    sjmp_spm_cycles = Hashtbl.create 64;
    sjmp_stack = [];
    uops = 0;
    drains = 0;
  }

let count tbl pc = Option.value ~default:0 (Hashtbl.find_opt tbl pc)

(* A pc added with weight 0 is listed too, with count 0. *)
let add tbl pc w = Hashtbl.replace tbl pc (count tbl pc + w)

(* Count descending, then pc ascending; [n] keeps the first [n]. *)
let top ?n tbl =
  let ranked =
    List.sort
      (fun (p1, c1) (p2, c2) -> if c1 <> c2 then Int.compare c2 c1 else Int.compare p1 p2)
      (Hashtbl.fold (fun pc c acc -> (pc, c) :: acc) tbl [])
  in
  match n with None -> ranked | Some n -> List.filteri (fun i _ -> i < n) ranked

(* The engine runs secure regions LIFO (jbTable order), so a stack of live
   sJMP pcs attributes each drain to the innermost open region: the enter
   and after-NT-path drains belong to the top, the exit drain pops. A
   drain with no open region (cannot happen with the current engine) is
   filed under pc -1 rather than lost, keeping totals exact. *)
let on_drain t (ev : Probe.drain_event) =
  t.drains <- t.drains + 1;
  let pc, pop =
    match (ev.Probe.reason, t.sjmp_stack) with
    | Uop.Drain_exit_secblock, pc :: rest -> (pc, Some rest)
    | (Uop.Drain_enter_secblock | Uop.Drain_after_nt_path), pc :: _ ->
      (pc, None)
    | _, [] -> (-1, None)
  in
  (match pop with Some rest -> t.sjmp_stack <- rest | None -> ());
  add t.sjmp_drains pc 1;
  add t.sjmp_spm_cycles pc ev.Probe.spm_cycles

let on_uop t (ev : Probe.uop_event) =
  t.uops <- t.uops + 1;
  let u = ev.Probe.uop in
  (match u.Uop.ctl with
   | Uop.Ctl_branch ->
     if u.Uop.secure then t.sjmp_stack <- u.Uop.pc :: t.sjmp_stack
     else add t.branch_executions u.Uop.pc 1
   | _ -> ());
  if ev.Probe.mispredicted then add t.branch_mispredicts u.Uop.pc 1;
  if ev.Probe.dcache_miss then add t.load_misses u.Uop.pc 1

let probe t = { Probe.on_uop = on_uop t; on_drain = on_drain t }

let pc_label ?resolve pc =
  if pc < 0 then "<none>"
  else
    match resolve with
    | None -> string_of_int pc
    | Some f -> Printf.sprintf "%d: %s" pc (f pc)

let table ?resolve ~title ~value_header ?(extra = fun _ _ -> []) ?extra_header
    entries =
  let header =
    [ "pc"; value_header ] @ Option.value ~default:[] extra_header
  in
  let rows =
    List.map
      (fun (pc, v) -> [ pc_label ?resolve pc; string_of_int v ] @ extra pc v)
      entries
  in
  title ^ "\n"
  ^ (if rows = [] then "(none)\n" else Tablefmt.render ~header rows)

let render ?(n = 10) ?resolve t =
  let mispredict_extra pc _ =
    let execs = count t.branch_executions pc in
    let misses = count t.branch_mispredicts pc in
    [
      (if execs = 0 then "-"
       else Tablefmt.percent (Sempe_util.Stats.ratio ~num:misses ~den:execs));
    ]
  in
  let drain_extra pc _ =
    [ string_of_int (count t.sjmp_drains pc) ]
  in
  String.concat "\n"
    [
      table ?resolve ~title:"Top branches by mispredicts"
        ~value_header:"mispredicts" ~extra:mispredict_extra
        ~extra_header:[ "miss rate" ]
        (top ~n t.branch_mispredicts);
      table ?resolve ~title:"Top loads by DL1 misses" ~value_header:"misses"
        (top ~n t.load_misses);
      table ?resolve ~title:"Top sJMPs by SPM transfer cycles"
        ~value_header:"spm cycles" ~extra:drain_extra
        ~extra_header:[ "drains" ]
        (top ~n t.sjmp_spm_cycles);
    ]

let table_json ?n tbl =
  Json.List
    (List.map
       (fun (pc, v) -> Json.Obj [ ("pc", Json.Int pc); ("count", Json.Int v) ])
       (top ?n tbl))

let to_json ?n t =
  Json.Obj
    [
      ("uops", Json.Int t.uops);
      ("drains", Json.Int t.drains);
      ("branch_mispredicts", table_json ?n t.branch_mispredicts);
      ("load_dcache_misses", table_json ?n t.load_misses);
      ("sjmp_spm_cycles", table_json ?n t.sjmp_spm_cycles);
      (* every count is exact *)
      ("exact", Json.Bool true);
    ]

let branch_mispredicts t = top t.branch_mispredicts
let load_misses t = top t.load_misses
let sjmp_spm_cycles t = top t.sjmp_spm_cycles
let uops t = t.uops
let drains t = t.drains
