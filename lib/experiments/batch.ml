module Pool = Sempe_util.Pool
module Stats = Sempe_util.Stats

let jobs_setting = Atomic.make 1

let set_jobs n = Atomic.set jobs_setting (max 1 (min Pool.max_workers n))
let jobs () = Atomic.get jobs_setting
let default_jobs = Pool.default_workers

(* ---- telemetry ---------------------------------------------------------- *)

type telemetry = {
  jobs_run : int;
  wall_s : float;
  mean_s : float;
  p50_s : float;
  p95_s : float;
  max_s : float;
  throughput : float;
}

(* All mutable telemetry state lives behind [tm]. [tm] is a leaf lock: it is
   taken from inside the pool's [on_done] callback (which itself runs under
   the pool lock), so nothing here may call back into the pool. Timings are
   kept only while progress is on: the summary holds every sample, and a
   long-lived process (the daemon) sweeps with progress off. *)
let tm = Mutex.create ()
let job_seconds = Stats.Summary.create ()
let wall_seconds = ref 0.0
let progress_enabled = ref false

let with_tm f =
  Mutex.lock tm;
  Fun.protect ~finally:(fun () -> Mutex.unlock tm) f

let set_progress on = with_tm (fun () -> progress_enabled := on)

let telemetry () =
  with_tm (fun () ->
      let n = Stats.Summary.count job_seconds in
      if n = 0 then None
      else
        let wall = !wall_seconds in
        Some
          {
            jobs_run = n;
            wall_s = wall;
            mean_s = Stats.Summary.mean job_seconds;
            p50_s = Stats.Summary.percentile 0.50 job_seconds;
            p95_s = Stats.Summary.percentile 0.95 job_seconds;
            max_s = Stats.Summary.max job_seconds;
            throughput = (if wall > 0.0 then float_of_int n /. wall else 0.0);
          })

(* ---- fan-out ------------------------------------------------------------ *)

let map ?j f xs =
  let j = match j with Some j -> max 1 j | None -> jobs () in
  let j = min j (List.length xs) in
  let n = List.length xs in
  let completed = ref 0 in
  let on_done _i secs =
    Mutex.lock tm;
    incr completed;
    if !progress_enabled then begin
      Stats.Summary.observe job_seconds secs;
      Printf.eprintf "\r[sweep] %d/%d" !completed n;
      flush stderr
    end;
    Mutex.unlock tm
  in
  let t0 = Pool.now_s () in
  let results = Pool.run ~workers:(max 1 j) ~on_done f xs in
  let wall = Pool.now_s () -. t0 in
  with_tm (fun () ->
      if !progress_enabled then begin
        wall_seconds := !wall_seconds +. wall;
        if n > 0 then begin
          Printf.eprintf "\r[sweep] %d/%d done in %.2fs\n" !completed n wall;
          flush stderr
        end
      end);
  results

let split_n n xs =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go n [] xs

let map_product ?j f outer inner =
  let cells =
    List.concat_map (fun o -> List.map (fun i -> (o, i)) inner) outer
  in
  let results = map ?j (fun (o, i) -> f o i) cells in
  let per_outer = List.length inner in
  let rec regroup os rs =
    match os with
    | [] -> []
    | o :: os ->
      let mine, rest = split_n per_outer rs in
      (o, mine) :: regroup os rest
  in
  regroup outer results
