(* The differential fuzzing driver.

   Work is organized in fixed-size rounds so results are deterministic at
   any worker count: a round's cases are fully determined by the master
   seed (fresh cases) and by earlier rounds' results (mutants), the
   oracle checks fan out over the domain pool as pure share-nothing jobs,
   and all feedback — feature bookkeeping, mutant scheduling, failure
   minimization, corpus writes — happens on the driver domain in job
   order. [budget_s] is the only wall-clock input, and it is consulted
   between rounds only, so a `--count`-bounded run is bit-reproducible.

   "Coverage" feedback is microarchitectural, not line-based: each
   passing case is fingerprinted by the shape of its SeMPE execution
   (secure-branch count, drains, peak nesting, mispredicts, SPM traffic,
   dynamic length — log-bucketed). The first case to exhibit a new
   fingerprint gets mutated, steering generation towards the protocol
   corners (deep nesting, heavy SPM traffic) a uniform grammar reaches
   rarely. *)

module Pool = Sempe_util.Pool
module Rng = Sempe_util.Rng
module Json = Sempe_obs.Json
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Exec = Sempe_core.Exec
module Timing = Sempe_pipeline.Timing
module Harness = Sempe_workloads.Harness

type config = {
  seed : int;
  count : int;
  budget_s : float option;
  oracles : Oracle.t list;
  workers : int;
  ctx : Oracle.ctx;
  gen_cfg : Gen.cfg;
  corpus_dir : string option;
  minimize : bool;
  max_failures : int;
}

let default_config =
  {
    seed = 1;
    count = 100;
    budget_s = None;
    oracles = Oracle.all;
    workers = 1;
    ctx = Oracle.default_ctx;
    gen_cfg = Gen.default_cfg;
    corpus_dir = None;
    minimize = true;
    max_failures = 5;
  }

type origin = Generated | Mutant | Replayed of string

let origin_name = function
  | Generated -> "generated"
  | Mutant -> "mutant"
  | Replayed file -> "replay:" ^ file

type attribution = {
  a_comparison : string;  (** which runs were diffed (see [Oracle.attribute]) *)
  a_text : string;  (** rendered attribution report *)
  a_json : Json.t;
}

type failure = {
  f_seed : int;
  f_origin : origin;
  f_oracle : string;
  f_message : string;
  f_size : int;  (** statements before minimization *)
  f_min_size : int;  (** statements after minimization *)
  f_min_instrs : int;  (** static SeMPE instructions of the reproducer *)
  f_source : string;  (** minimized program, concrete syntax *)
  f_trials : int;  (** oracle invocations the minimizer spent *)
  f_repro : string option;  (** corpus path, when persisted *)
  f_attribution : attribution option;
      (** leakage localization of the minimized reproducer: the divergent
          PC and hardware structure (state/trace oracles only) *)
}

type outcome = {
  executed : int;
  generated : int;
  mutants : int;
  replayed : int;
  features : int;
  failures : failure list;
  wall_s : float;
}

(* ---- per-case job (runs on pool workers; pure) -------------------------- *)

let ilog2 n =
  if n <= 0 then 0
  else begin
    let r = ref 0 and v = ref n in
    while !v > 1 do
      incr r;
      v := !v lsr 1
    done;
    !r + 1
  end

(* Microarchitectural fingerprint of a (passing) case under the SeMPE
   scheme; [None] when the case cannot even be simulated — the oracles
   will have reported that as a failure. *)
let fingerprint (ctx : Oracle.ctx) (case : Gen.case) =
  try
    let built = Harness.build Scheme.Sempe case.Gen.prog in
    let outcome =
      Harness.run ~fault:ctx.Oracle.fault ~mem_words:ctx.Oracle.mem_words
        ~globals:(List.hd case.Gen.secrets)
        ~arrays:[ (Gen.array_name, case.Gen.fill) ]
        built
    in
    let r = outcome.Run.timing in
    Some
      ( ilog2 r.Timing.secure_branches,
        ilog2 r.Timing.drains,
        outcome.Run.exec.Exec.max_nesting,
        ilog2 r.Timing.mispredicts,
        ilog2 r.Timing.spm_cycles,
        ilog2 r.Timing.instructions )
  with _ -> None

let evaluate config case =
  let violation = Oracle.run_all config.oracles config.ctx case in
  let fp = if violation = None then fingerprint config.ctx case else None in
  (violation, fp)

(* ---- failure handling (driver domain; sequential) ----------------------- *)

let still_same_oracle config oracle case =
  match Oracle.find oracle with
  | None -> false
  | Some o -> (
    match Oracle.run_all [ o ] config.ctx case with
    | Some (name, _) -> name = oracle
    | None -> false)

let record_failure config ~origin case (oracle, message) =
  let minimized, stats =
    if config.minimize then
      Minimize.minimize ~still:(still_same_oracle config oracle) case
    else (case, { Minimize.trials = 0; accepted = 0 })
  in
  let repro =
    match (config.corpus_dir, origin) with
    | Some dir, (Generated | Mutant) ->
      Some (Corpus.save ~dir { Corpus.case = minimized; oracle; message })
    | _ -> None
  in
  (* Leakage localization of the reproducer. Only the differential
     oracles benefit (a timing-invariant or sampling failure is not a
     leak), and an exception here must not mask the failure itself. *)
  let attribution =
    match oracle with
    | "state" | "trace" -> (
      match (try Oracle.attribute config.ctx minimized with _ -> None) with
      | None -> None
      | Some (attr, prog, comparison) ->
        Some
          {
            a_comparison = comparison;
            a_text =
              Sempe_security.Attribution.render ~program:prog attr;
            a_json = Sempe_security.Attribution.to_json ~program:prog attr;
          })
    | _ -> None
  in
  {
    f_seed = case.Gen.seed;
    f_origin = origin;
    f_oracle = oracle;
    f_message = message;
    f_size = Gen.size case;
    f_min_size = Gen.size minimized;
    f_min_instrs =
      (try Gen.static_instrs minimized with _ -> -1);
    f_source = Gen.to_source minimized;
    f_trials = stats.Minimize.trials;
    f_repro = repro;
    f_attribution = attribution;
  }

(* ---- driver -------------------------------------------------------------- *)

let round_size = 32

let run config =
  if config.count < 0 then invalid_arg "Fuzz.run: count must be non-negative";
  if config.oracles = [] then invalid_arg "Fuzz.run: no oracles selected";
  let t0 = Pool.now_s () in
  let pool = Pool.create ~workers:config.workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let failures = ref [] in
  let n_failures () = List.length !failures in
  (* 1. replay the corpus: known reproducers run before anything new *)
  let corpus_entries =
    match config.corpus_dir with
    | None -> []
    | Some dir -> Corpus.load_dir dir
  in
  let replay_results =
    Pool.map pool
      (fun (_, e) -> Oracle.run_all config.oracles config.ctx e.Corpus.case)
      corpus_entries
  in
  List.iter2
    (fun (file, e) result ->
      match result with
      | None -> ()
      | Some violation ->
        failures :=
          record_failure config ~origin:(Replayed file) e.Corpus.case violation
          :: !failures)
    corpus_entries replay_results;
  (* 2. generation rounds with mutation feedback *)
  let seen = Hashtbl.create 64 in
  let pending = Queue.create () in
  let executed = ref 0 and generated = ref 0 and mutants = ref 0 in
  let next_fresh = ref 0 in
  let over_budget () =
    match config.budget_s with
    | None -> false
    | Some b -> Pool.now_s () -. t0 >= b
  in
  while
    !executed < config.count
    && n_failures () < config.max_failures
    && not (over_budget ())
  do
    let n = min round_size (config.count - !executed) in
    let cases =
      List.init n (fun _ ->
          match Queue.take_opt pending with
          | Some mutant ->
            incr mutants;
            (Mutant, mutant)
          | None ->
            let seed = Rng.mix config.seed !next_fresh in
            incr next_fresh;
            incr generated;
            (Generated, Gen.generate ~cfg:config.gen_cfg seed))
    in
    let results =
      Pool.map pool (fun (_, case) -> evaluate config case) cases
    in
    List.iter2
      (fun (origin, case) (violation, fp) ->
        match violation with
        | Some v ->
          if n_failures () < config.max_failures then
            failures := record_failure config ~origin case v :: !failures
        | None -> (
          match fp with
          | Some fp when not (Hashtbl.mem seen fp) ->
            Hashtbl.replace seen fp ();
            (* a new execution shape: explore its neighborhood *)
            let mrng = Rng.create (Rng.mix config.seed (case.Gen.seed lxor 0x5eed)) in
            for _ = 1 to 2 do
              Queue.add (Gen.mutate ~cfg:config.gen_cfg mrng case) pending
            done
          | _ -> ()))
      cases results;
    executed := !executed + n
  done;
  {
    executed = !executed;
    generated = !generated;
    mutants = !mutants;
    replayed = List.length corpus_entries;
    features = Hashtbl.length seen;
    failures = List.rev !failures;
    wall_s = Pool.now_s () -. t0;
  }

(* ---- rendering ----------------------------------------------------------- *)

let failure_to_json f =
  Json.Obj
    [
      ("seed", Json.Int f.f_seed);
      ("origin", Json.Str (origin_name f.f_origin));
      ("oracle", Json.Str f.f_oracle);
      ("message", Json.Str f.f_message);
      ("size", Json.Int f.f_size);
      ("min_size", Json.Int f.f_min_size);
      ("min_instrs", Json.Int f.f_min_instrs);
      ("minimizer_trials", Json.Int f.f_trials);
      ("source", Json.Str f.f_source);
      ( "repro",
        match f.f_repro with None -> Json.Null | Some p -> Json.Str p );
      ( "attribution",
        match f.f_attribution with
        | None -> Json.Null
        | Some a ->
          Json.Obj
            [
              ("comparison", Json.Str a.a_comparison);
              ("report", a.a_json);
            ] );
    ]

(* [wall_s] is deliberately not part of the JSON document: `sempe-sim
   fuzz --json` must be byte-identical across worker counts and runs. *)
let to_json o =
  Json.Obj
    [
      ("executed", Json.Int o.executed);
      ("generated", Json.Int o.generated);
      ("mutants", Json.Int o.mutants);
      ("replayed", Json.Int o.replayed);
      ("features", Json.Int o.features);
      ("failures", Json.List (List.map failure_to_json o.failures));
    ]

let render config o =
  let failure f =
    Printf.sprintf
      "\nFAIL [%s] seed %d (%s): %s\n\
       minimized %d -> %d statements (%d static instructions, %d \
       minimizer trials)%s\n\
       %s\n%s"
      f.f_oracle f.f_seed (origin_name f.f_origin) f.f_message f.f_size
      f.f_min_size f.f_min_instrs f.f_trials
      (match f.f_repro with
       | None -> ""
       | Some p -> Printf.sprintf "\nreproducer: %s" p)
      f.f_source
      (match f.f_attribution with
       | None -> ""
       | Some a ->
         Printf.sprintf "leakage attribution (%s):\n%s" a.a_comparison
           a.a_text)
  in
  Printf.sprintf
    "fuzz: seed %d, %d cases executed, %d execution shapes, oracles: %s\n%s"
    config.seed o.executed o.features
    (String.concat ", " (List.map (fun o -> o.Oracle.name) config.oracles))
    (match o.failures with
     | [] -> "no oracle violations\n"
     | fs -> String.concat "" (List.map failure fs))
