module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Stall = Sempe_pipeline.Stall
module Tablefmt = Sempe_util.Tablefmt

let stall_stack_alist (r : Timing.report) =
  List.map
    (fun b -> (b, r.Timing.stall_stack.(Stall.index b)))
    Stall.all

let render_stall_stack (r : Timing.report) =
  let cycles = max 1 r.Timing.cycles in
  let rows =
    List.filter_map
      (fun (b, n) ->
        if n = 0 && b <> Stall.Base then None
        else
          Some
            [
              Stall.name b;
              string_of_int n;
              Tablefmt.percent (float_of_int n /. float_of_int cycles);
              Stall.describe b;
            ])
      (stall_stack_alist r)
  in
  Printf.sprintf "CPI stall stack (%d cycles, %d attributed)\n%s"
    r.Timing.cycles
    (Array.fold_left ( + ) 0 r.Timing.stall_stack)
    (Tablefmt.render ~header:[ "bucket"; "cycles"; "share"; "meaning" ] rows)

let stall_stack_json (r : Timing.report) =
  Json.Obj
    (List.map (fun (b, n) -> (Stall.name b, Json.Int n)) (stall_stack_alist r))

(* Generic "stack" rendering shared with the security side's leakage
   stacks: a bucket -> count alist whose counts sum to [total] by
   construction (the caller's invariant, mirrored from the stall stack).
   Kept generic over strings so this library stays security-agnostic. *)
let render_leakage_stack ~title ~total ~unit buckets =
  let denom = max 1 total in
  let rows =
    List.filter_map
      (fun (name, n) ->
        if n = 0 then None
        else
          Some
            [
              name;
              string_of_int n;
              Tablefmt.percent (float_of_int n /. float_of_int denom);
            ])
      buckets
  in
  if rows = [] then
    Printf.sprintf "%s: no divergent %s\n" title unit
  else
    Printf.sprintf "%s (%d divergent %s)\n%s\n" title total unit
      (Tablefmt.render ~header:[ "structure"; unit; "share" ] rows)

let leakage_stack_json buckets =
  Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) buckets)

let to_json (r : Timing.report) =
  Json.Obj
    [
      ("instructions", Json.Int r.Timing.instructions);
      ("cycles", Json.Int r.Timing.cycles);
      ("cpi", Json.Float r.Timing.cpi);
      ("cond_branches", Json.Int r.Timing.cond_branches);
      ("mispredicts", Json.Int r.Timing.mispredicts);
      ("secure_branches", Json.Int r.Timing.secure_branches);
      ("drains", Json.Int r.Timing.drains);
      ("spm_cycles", Json.Int r.Timing.spm_cycles);
      ("loads", Json.Int r.Timing.loads);
      ("stores", Json.Int r.Timing.stores);
      ("il1_accesses", Json.Int r.Timing.il1_accesses);
      ("il1_misses", Json.Int r.Timing.il1_misses);
      ("il1_miss_rate", Json.Float r.Timing.il1_miss_rate);
      ("dl1_accesses", Json.Int r.Timing.dl1_accesses);
      ("dl1_misses", Json.Int r.Timing.dl1_misses);
      ("dl1_miss_rate", Json.Float r.Timing.dl1_miss_rate);
      ("l2_accesses", Json.Int r.Timing.l2_accesses);
      ("l2_misses", Json.Int r.Timing.l2_misses);
      ("l2_miss_rate", Json.Float r.Timing.l2_miss_rate);
      ("stall_stack", stall_stack_json r);
    ]

let render (r : Timing.report) =
  let clock_hz = Config.default.Config.clock_ghz *. 1e9 in
  Tablefmt.render ~header:[ "metric"; "value" ]
    [
      [ "instructions"; string_of_int r.Timing.instructions ];
      [ "cycles"; string_of_int r.Timing.cycles ];
      [ "CPI"; Tablefmt.fixed 3 r.Timing.cpi ];
      [ "time @2GHz";
        Printf.sprintf "%.1f us" (float_of_int r.Timing.cycles /. clock_hz *. 1e6) ];
      [ "cond. branches"; string_of_int r.Timing.cond_branches ];
      [ "mispredicts"; string_of_int r.Timing.mispredicts ];
      [ "secure branches (sJMP)"; string_of_int r.Timing.secure_branches ];
      [ "pipeline drains"; string_of_int r.Timing.drains ];
      [ "SPM transfer cycles"; string_of_int r.Timing.spm_cycles ];
      [ "loads / stores";
        Printf.sprintf "%d / %d" r.Timing.loads r.Timing.stores ];
      [ "IL1 miss rate"; Tablefmt.percent r.Timing.il1_miss_rate ];
      [ "DL1 miss rate"; Tablefmt.percent r.Timing.dl1_miss_rate ];
      [ "L2 miss rate"; Tablefmt.percent r.Timing.l2_miss_rate ];
    ]
