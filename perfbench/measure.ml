(* Clocks, order statistics, the end-to-end metric set every workload
   reports, and the in-memory span recorder behind the traced run. *)

module Json = Sempe_obs.Json
module Trace = Sempe_obs.Trace

let now = Unix.gettimeofday

(* Where runs leave their traces and sockets, relative to the checkout
   root; created on first use. *)
let out_dir () =
  let dir = Filename.concat "perfbench" "_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile, the definition [Sempe_util.Stats] uses:
   the sample at rank [ceil (q * n)] of the ascending order. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

(* [VmHWM] of this process, the peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  scan ()

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* ---- the closed loop ---- *)

(* Outside interference on a shared host slows this process down for
   stretches of seconds to minutes, by up to ~1.8x, mostly through the
   memory system, so raw wall time measures the neighbours as much as
   the code. A fixed probe times the host itself: random
   read-modify-writes over an 8 MiB buffer, the best of three short
   passes so that one preemption does not count as contention. Every
   end-to-end time is expressed in reference-host time: the wall time
   scaled by [probe_ref_s] over the probe time measured next to it, so
   a host running at half speed reads the same as a quiet one.
   [probe_ref_s] is the probe's time on a quiet host of the kind this
   was tuned on (a 2-vCPU Xeon VM); on another host the figures are
   scaled by one constant factor, which comparisons cancel. *)
let probe_ref_s = 0.12e-3

let probe_buf = lazy (Array.make (1 lsl 20) 0)

let probe () =
  let buf = Lazy.force probe_buf in
  let mask = Array.length buf - 1 in
  let pass () =
    let t0 = now () in
    let x = ref 1 and acc = ref 0 in
    for i = 1 to 35_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let j = !x land mask in
      acc := !acc + buf.(j);
      buf.(j) <- i
    done;
    ignore (Sys.opaque_identity !acc);
    now () -. t0
  in
  let a = pass () in
  let b = pass () in
  Float.min a (Float.min b (pass ()))

(* [f]'s wall time in reference-host seconds, with the probe taken just
   before it. *)
let host_time f =
  let host = probe () in
  let r, dt = time f in
  (r, dt *. probe_ref_s /. host)

(* One completed op of a timed window: its latency in reference-host
   seconds and the simulated instructions it committed. *)
type op = { lat : float; instrs : int }

(* Issues [op 0] .. [op (ops - 1)] back to back, one at a time. The host
   probe runs before every [probe_every] ops (ops much shorter than the
   probe share one). [op] returns the wall latency and the instruction
   count. *)
let closed_loop ~ops ~probe_every op =
  let rec go i host acc =
    if i = ops then List.rev acc
    else
      let host = if i mod probe_every = 0 then probe () else host in
      let lat, instrs = op i in
      go (i + 1) host ({ lat = lat *. probe_ref_s /. host; instrs } :: acc)
  in
  go 0 probe_ref_s []

(* The number of ops a run issues: what a reference host completes in
   [seconds] at [rate] ops per second, in whole rotations of [round]
   inputs so every input is equally represented, and at least 128 so
   that more than ten lie beyond p90. A fixed count rather than a fixed
   duration keeps the work of a run, and the state it leaves behind
   (caches, heap, connections), independent of the host's speed. *)
let ops_for ~seconds ~rate ~round =
  let n = max 128 (int_of_float (Float.ceil (seconds *. rate))) in
  round * ((n + round - 1) / round)

(* Set up [reps] times (tearing the previous one down first, untimed)
   and keep the last; the set-up time is the median. *)
let setup_repeats ~reps ~teardown setup =
  let rec go k times last =
    if k = reps then (Option.get last, median times)
    else begin
      Option.iter teardown last;
      let st, dt = host_time setup in
      go (k + 1) (dt :: times) (Some st)
    end
  in
  go 0 [] None

(* Rates are the median over the run's rotations of each rotation's ops
   and instructions per second of summed latency, so a stretch of
   interference the probe misses moves them only if it covers most of
   the run; latencies are percentiles over all ops. *)
let end_to_end ~setup_s ~round ops =
  let a = Array.of_list ops in
  let rounds = List.init (Array.length a / round) (fun r -> Array.sub a (r * round) round) in
  let rate f =
    median
      (List.map
         (fun r -> Array.fold_left (fun acc o -> acc +. f o) 0. r /. Array.fold_left (fun acc o -> acc +. o.lat) 0. r)
         rounds)
  in
  let lats = List.map (fun o -> o.lat *. 1e3) ops in
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "1/s" (rate (fun _ -> 1.));
    metric "minstr_per_s" "Minstr/s" (rate (fun o -> float_of_int o.instrs) /. 1e6);
    metric "p50_ms" "ms" (percentile 0.5 lats);
    metric "p90_ms" "ms" (percentile 0.9 lats);
  ]

(* ---- spans ---- *)

(* A span around one call into a module's public function: name, start,
   end, the enclosing span, and the op it served. Spans stay in memory
   until {!write_perfetto}; with recording off, {!span} only times. *)
type span = {
  id : int;
  sname : string;
  op_id : int;
  parent : int;
  t0 : float;
  t1 : float;
}

let recording = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ?(op = -1) name f =
  if not !recording then time f
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    stack := List.tl !stack;
    spans := { id; sname = name; op_id = op; parent; t0; t1 } :: !spans;
    (r, t1 -. t0)
  end

(* Self time: the span minus the part its direct children cover. *)
let self_times all =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    all;
  fun s -> (s.t1 -. s.t0) -. Option.value ~default:0. (Hashtbl.find_opt child s.id)

(* The recorded spans as a Chrome trace-event file for ui.perfetto.dev,
   through the repository's own trace builders. Timestamps are
   microseconds from the first span. *)
let write_perfetto ~path ~title =
  let all = List.rev !spans in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let self = self_times all in
  let us x = int_of_float (Float.round (x *. 1e6)) in
  let slices =
    List.map
      (fun s ->
        Trace.slice_at ~name:s.sname ~pid:1 ~tid:1 ~ts:(us (s.t0 -. origin))
          ~dur:(us (s.t1 -. s.t0))
          ~args:
            [
              ("span", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("op", Json.Int s.op_id);
              ("self_us", Json.Int (us (self s)));
            ])
      all
  in
  let doc =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            (Trace.process_meta ~pid:1 ~name:title
            :: Trace.thread_meta ~pid:1 ~tid:1 ~name:"perfbench"
            :: slices) );
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Json.output oc doc)
