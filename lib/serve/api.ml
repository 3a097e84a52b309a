module Json = Sempe_obs.Json
module Report = Sempe_obs.Report
module Profile = Sempe_obs.Profile
module Sink = Sempe_obs.Sink
module Tablefmt = Sempe_util.Tablefmt
module Timing = Sempe_pipeline.Timing
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Sampling = Sempe_sampling.Sampling
module Harness = Sempe_workloads.Harness
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Djpeg = Sempe_workloads.Djpeg
module Rsa = Sempe_workloads.Rsa
module Pool = Sempe_util.Pool
module Fuzz = Sempe_fuzz.Fuzz
module Security_exp = Sempe_experiments.Security_exp

type workload =
  | Microbench of { kernel : string; width : int; iters : int; leaf : int }
  | Djpeg of { format : string; blocks : int; seed : int }
  | Rsa of { key : int }

type sample_params = { interval : int; coverage : float; warmup : int }

type request =
  | Simulate of { scheme : Scheme.t; workload : workload; strict_oob : bool }
  | Sample of {
      scheme : Scheme.t;
      workload : workload;
      strict_oob : bool;
      params : sample_params;
    }
  | Profile of { scheme : Scheme.t; workload : workload; top : int }
  | Leakage
  | Fuzz_smoke of { seed : int; count : int }

type outcome =
  | Simulated of {
      scheme : Scheme.t;
      workload : workload;
      value : int;
      report : Timing.report;
      slowdown : float option;
    }
  | Sampled of {
      scheme : Scheme.t;
      workload : workload;
      estimate : Sampling.estimate;
      full_cycles : int option;
    }
  | Profiled of {
      scheme : Scheme.t;
      workload : workload;
      top : int;
      report : Timing.report;
      profile : Profile.t;
      code : Sempe_isa.Instr.t array;
    }
  | Leakage_matrix of Security_exp.result list
  | Fuzzed of { config : Fuzz.config; outcome : Fuzz.outcome }

(* The software schemes get the constant-time kernel variants (their
   transforms would not terminate on data-dependent loops). *)
let ct_of_scheme = function
  | Scheme.Cte | Scheme.Raccoon | Scheme.Mto -> true
  | Scheme.Baseline | Scheme.Sempe | Scheme.Sempe_on_legacy -> false

let kernel_named name =
  match Kernels.by_name name with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Api: unknown kernel %S" name)

let format_named name =
  match String.uppercase_ascii name with
  | "PPM" -> Djpeg.Ppm
  | "GIF" -> Djpeg.Gif
  | "BMP" -> Djpeg.Bmp
  | other -> invalid_arg (Printf.sprintf "Api: unknown djpeg format %S" other)

let rsa_base = 1234
let rsa_modulus = 99991

(* The compiled program reads only the parameters that shape the code:
   scheme, kernel/width/iters, format. The rest (leaf, key, seed, blocks)
   are inputs, synthesized by [setup] for a run and never for a key. *)
let program scheme = function
  | Microbench { kernel; width; iters; _ } ->
    let spec = { MB.kernel = kernel_named kernel; width; iters } in
    Harness.build scheme (MB.program ~ct:(ct_of_scheme scheme) spec)
  | Djpeg { format; _ } -> Harness.build scheme (Djpeg.program (format_named format))
  | Rsa _ -> Harness.build scheme Rsa.program

let setup scheme workload =
  let globals, arrays =
    match workload with
    | Microbench { width; leaf; _ } -> (MB.secrets_for_leaf ~width ~leaf, [])
    | Djpeg { format; blocks; seed } ->
      Djpeg.inputs (format_named format) ~seed ~blocks
    | Rsa { key } -> Rsa.inputs ~key ~base:rsa_base ~modulus:rsa_modulus
  in
  (program scheme workload, globals, arrays)

let describe = function
  | Rsa { key } -> Printf.sprintf "rsa key=0x%04x" key
  | Djpeg { format; blocks; seed } ->
    Printf.sprintf "djpeg %s blocks=%d seed=%d"
      (Djpeg.format_name (format_named format))
      blocks seed
  | Microbench { kernel; width; iters; leaf } ->
    Printf.sprintf "%s W=%d iters=%d leaf=%d"
      (kernel_named kernel).Kernels.name width iters leaf

(* A workload's type name and parameters, in wire order: the [workload]
   object of a request and the opening fields of its result document. *)
let workload_fields = function
  | Microbench { kernel; width; iters; leaf } ->
    ( "microbench",
      [
        ("kernel", Json.Str (kernel_named kernel).Kernels.name);
        ("width", Json.Int width);
        ("iters", Json.Int iters);
        ("leaf", Json.Int leaf);
      ] )
  | Djpeg { format; blocks; seed } ->
    ( "djpeg",
      [
        ("format", Json.Str (Djpeg.format_name (format_named format)));
        ("blocks", Json.Int blocks);
        ("seed", Json.Int seed);
      ] )
  | Rsa { key } -> ("rsa", [ ("key", Json.Int key) ])

(* ---- range check ---- *)

let ( let* ) = Result.bind

let check_workload = function
  | Microbench { kernel; width; iters; leaf } ->
    if Kernels.by_name kernel = None then
      Error
        (Printf.sprintf "unknown kernel %S (expected one of: %s)" kernel
           (String.concat ", " (List.map (fun k -> k.Kernels.name) Kernels.all)))
    else if width < 1 then Error "field \"width\" must be >= 1"
    else if iters < 1 then Error "field \"iters\" must be >= 1"
    else if leaf < 1 || leaf > width + 1 then
      Error "field \"leaf\" must be in 1..width+1"
    else Ok ()
  | Djpeg { format; blocks; _ } -> (
    match String.uppercase_ascii format with
    | "PPM" | "GIF" | "BMP" ->
      if blocks < 1 || blocks > Djpeg.max_blocks then
        Error
          (Printf.sprintf "field \"blocks\" must be in 1..%d" Djpeg.max_blocks)
      else Ok ()
    | other ->
      Error (Printf.sprintf "unknown djpeg format %S (PPM, GIF or BMP)" other))
  | Rsa { key } ->
    if key < 0 || key lsr Rsa.key_bits <> 0 then
      Error (Printf.sprintf "field \"key\" must fit in %d bits" Rsa.key_bits)
    else Ok ()

let check = function
  | Simulate { workload; _ } -> check_workload workload
  | Sample { workload; params = { interval; coverage; warmup }; _ } ->
    let* () = check_workload workload in
    if interval <= 0 then Error "field \"interval\" must be positive"
    else if not (coverage > 0. && coverage <= 1.) then
      Error "field \"coverage\" must be in (0, 1]"
    else if warmup < 0 then Error "field \"warmup\" must be >= 0"
    else Ok ()
  | Profile { workload; top; _ } ->
    let* () = check_workload workload in
    if top < 1 then Error "field \"top\" must be >= 1" else Ok ()
  | Leakage -> Ok ()
  | Fuzz_smoke { count; _ } ->
    if count < 1 then Error "field \"count\" must be >= 1"
    else if count > 10_000 then Error "field \"count\" must be <= 10000"
    else Ok ()

(* ---- execution ---- *)

let full_cycles scheme workload ~strict_oob =
  let built, globals, arrays = setup scheme workload in
  Run.cycles
    (Harness.run ~forgiving_oob:(not strict_oob) ~globals ~arrays built)

let run ?workers request =
  match request with
  | Simulate { scheme; workload; strict_oob } ->
    let built, globals, arrays = setup scheme workload in
    let forgiving_oob = not strict_oob in
    let outcome = Harness.run ~forgiving_oob ~globals ~arrays built in
    let slowdown =
      match workload with
      | Microbench _ ->
        Some
          (Run.overhead
             ~baseline:
               (Harness.run ~forgiving_oob ~globals
                  (program Scheme.Baseline workload))
             outcome)
      | Djpeg _ | Rsa _ -> None
    in
    Simulated
      {
        scheme;
        workload;
        value = Harness.return_value outcome;
        report = outcome.Run.timing;
        slowdown;
      }
  | Sample { scheme; workload; strict_oob; params } ->
    let built, globals, arrays = setup scheme workload in
    let config =
      {
        Sampling.default_config with
        Sampling.interval = params.interval;
        coverage = params.coverage;
        warmup = params.warmup;
      }
    in
    let estimate =
      Harness.sample ~forgiving_oob:(not strict_oob) ~globals ~arrays ~config
        ?workers built
    in
    Sampled { scheme; workload; estimate; full_cycles = None }
  | Profile { scheme; workload; top } ->
    let built, globals, arrays = setup scheme workload in
    let profile = Profile.create () in
    let sink = Sink.of_probe (Profile.probe profile) in
    let outcome = Harness.run ~globals ~arrays ~sink built in
    sink.Sink.close ();
    Profiled
      {
        scheme;
        workload;
        top;
        report = outcome.Run.timing;
        profile;
        code = built.Harness.prog.Sempe_isa.Program.code;
      }
  | Leakage -> Leakage_matrix (Security_exp.measure ())
  | Fuzz_smoke { seed; count } ->
    (* The corpus-less CLI invocation: all oracles, minimization on, the
       default failure cap. The outcome JSON is worker-count-independent
       by construction, so [workers] only bounds wall time. *)
    let workers =
      match workers with
      | None -> Pool.default_workers ()
      | Some w -> max 1 (min w (Pool.default_workers ()))
    in
    let config = { Fuzz.default_config with Fuzz.seed; count; workers } in
    Fuzzed { config; outcome = Fuzz.run config }

(* ---- renderers ---- *)

(* A workload's identifying fields, opening its result documents. *)
let tags scheme workload =
  let ty, fields = workload_fields workload in
  (("workload", Json.Str ty) :: fields)
  @ [ ("scheme", Json.Str (Scheme.name scheme)) ]

let rsa_expected key =
  Rsa.reference ~key ~base:rsa_base ~modulus:rsa_modulus

let to_json = function
  | Simulated { scheme; workload; value; report; slowdown } ->
    let fields =
      match workload with
      | Rsa { key } ->
        [ ("result", Json.Int value); ("expected", Json.Int (rsa_expected key)) ]
      | Microbench _ | Djpeg _ -> [ ("checksum", Json.Int value) ]
    in
    let slowdown =
      match slowdown with
      | Some s -> [ ("slowdown_vs_baseline", Json.Float s) ]
      | None -> []
    in
    Json.Obj
      (tags scheme workload @ fields @ slowdown
      @ [ ("report", Report.to_json report) ])
  | Sampled { scheme; workload; estimate; full_cycles } ->
    let comparison =
      match full_cycles with
      | None -> []
      | Some cycles ->
        [
          ("full_cycles", Json.Int cycles);
          ("error", Json.Float (Sampling.relative_error estimate ~cycles));
          ("in_bound", Json.Bool (Sampling.contains estimate ~cycles));
        ]
    in
    Json.Obj
      (tags scheme workload
      @ (("sampling", Sampling.to_json estimate) :: comparison))
  | Profiled { scheme; workload; top; report; profile; _ } ->
    Json.Obj
      [
        ("workload", Json.Str (describe workload));
        ("scheme", Json.Str (Scheme.name scheme));
        ("report", Report.to_json report);
        ("profile", Profile.to_json ~n:top profile);
      ]
  | Leakage_matrix results -> Security_exp.to_json results
  | Fuzzed { outcome; _ } -> Fuzz.to_json outcome

(* The one-line title of a workload's text rendering. *)
let headline scheme workload =
  let scheme = Scheme.name scheme in
  match workload with
  | Microbench { kernel; width; iters; leaf } ->
    Printf.sprintf "microbenchmark %s, W=%d, iters=%d, scheme=%s, true leaf=%d"
      (kernel_named kernel).Kernels.name width iters scheme leaf
  | Djpeg { format; blocks; seed } ->
    Printf.sprintf "djpeg -> %s, %d blocks, scheme=%s, image seed=%d"
      (Djpeg.format_name (format_named format))
      blocks scheme seed
  | Rsa { key } ->
    Printf.sprintf "modexp (Figure 1), key=0x%04x, scheme=%s" key scheme

let to_text = function
  | Simulated { scheme; workload; value; report; slowdown } ->
    let result =
      match workload with
      | Rsa { key } ->
        Printf.sprintf "result = %d (expected %d)" value (rsa_expected key)
      | Microbench _ | Djpeg _ -> Printf.sprintf "checksum = %d" value
    in
    Printf.sprintf "%s\n%s\n\n%s\n%s" (headline scheme workload) result
      (Report.render report)
      (match slowdown with
       | Some s -> Printf.sprintf "\nslowdown vs baseline: %s\n" (Tablefmt.times s)
       | None -> "")
  | Sampled { scheme; workload; estimate; full_cycles } ->
    Printf.sprintf "%s (sampled)\n\n%s\n%s" (headline scheme workload)
      (Sampling.render estimate)
      (match full_cycles with
       | None -> ""
       | Some cycles ->
         Printf.sprintf "\nfull run: %d cycles -> error %s (%s the 90%% band)\n"
           cycles
           (Tablefmt.percent (Sampling.relative_error estimate ~cycles))
           (if Sampling.contains estimate ~cycles then "inside" else "OUTSIDE"))
  | Profiled { scheme; workload; top; report; profile; code } ->
    let resolve pc =
      if pc >= 0 && pc < Array.length code then
        Sempe_isa.Instr.to_string code.(pc)
      else "?"
    in
    Printf.sprintf "profile: %s, scheme=%s\n\n%s\n\n%s\n%s" (describe workload)
      (Scheme.name scheme) (Report.render report)
      (Report.render_stall_stack report)
      (Profile.render ~n:top ~resolve profile)
  | Leakage_matrix results -> Security_exp.render results ^ "\n"
  | Fuzzed { config; outcome } -> Fuzz.render config outcome

let perform ?workers request = to_json (run ?workers request)

(* ---- wire form ---- *)

let workload_to_json workload =
  let ty, fields = workload_fields workload in
  Json.Obj (("type", Json.Str ty) :: fields)

let request_to_json = function
  | Simulate { scheme; workload; strict_oob } ->
    Json.Obj
      [
        ("op", Json.Str "simulate");
        ("scheme", Json.Str (Scheme.name scheme));
        ("strict_oob", Json.Bool strict_oob);
        ("workload", workload_to_json workload);
      ]
  | Sample { scheme; workload; strict_oob; params } ->
    Json.Obj
      [
        ("op", Json.Str "sample");
        ("scheme", Json.Str (Scheme.name scheme));
        ("strict_oob", Json.Bool strict_oob);
        ("workload", workload_to_json workload);
        ("interval", Json.Int params.interval);
        ("coverage", Json.Float params.coverage);
        ("warmup", Json.Int params.warmup);
      ]
  | Profile { scheme; workload; top } ->
    Json.Obj
      [
        ("op", Json.Str "profile");
        ("scheme", Json.Str (Scheme.name scheme));
        ("top", Json.Int top);
        ("workload", workload_to_json workload);
      ]
  | Leakage -> Json.Obj [ ("op", Json.Str "leakage") ]
  | Fuzz_smoke { seed; count } ->
    Json.Obj
      [
        ("op", Json.Str "fuzz-smoke");
        ("seed", Json.Int seed);
        ("count", Json.Int count);
      ]

(* ---- strict decode ---- *)

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_obj name = function
  | Json.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "field %S must be an object" name)

let int_field name fields =
  let* v = field name fields in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let str_field name fields =
  let* v = field name fields in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let bool_field name fields =
  let* v = field name fields in
  match v with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let float_field name fields =
  let* v = field name fields in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let scheme_field fields =
  let* s = str_field "scheme" fields in
  match Scheme.of_string s with
  | Some scheme -> Ok scheme
  | None ->
    Error
      (Printf.sprintf "unknown scheme %S (expected one of: %s)" s
         (String.concat ", " (List.map Scheme.name Scheme.all)))

let workload_of_fields fields =
  let* w = field "workload" fields in
  let* wf = as_obj "workload" w in
  let* ty = str_field "type" wf in
  match ty with
  | "microbench" ->
    let* kernel = str_field "kernel" wf in
    let* width = int_field "width" wf in
    let* iters = int_field "iters" wf in
    let* leaf = int_field "leaf" wf in
    Ok (Microbench { kernel; width; iters; leaf })
  | "djpeg" ->
    let* format = str_field "format" wf in
    let* blocks = int_field "blocks" wf in
    let* seed = int_field "seed" wf in
    Ok (Djpeg { format = String.uppercase_ascii format; blocks; seed })
  | "rsa" ->
    let* key = int_field "key" wf in
    Ok (Rsa { key })
  | other -> Error (Printf.sprintf "unknown workload type %S" other)

let decode fields =
  let* op = str_field "op" fields in
  match op with
  | "simulate" ->
    let* scheme = scheme_field fields in
    let* strict_oob = bool_field "strict_oob" fields in
    let* workload = workload_of_fields fields in
    Ok (Simulate { scheme; workload; strict_oob })
  | "sample" ->
    let* scheme = scheme_field fields in
    let* strict_oob = bool_field "strict_oob" fields in
    let* workload = workload_of_fields fields in
    let* interval = int_field "interval" fields in
    let* coverage = float_field "coverage" fields in
    let* warmup = int_field "warmup" fields in
    Ok
      (Sample
         { scheme; workload; strict_oob; params = { interval; coverage; warmup } })
  | "profile" ->
    let* scheme = scheme_field fields in
    let* top = int_field "top" fields in
    let* workload = workload_of_fields fields in
    Ok (Profile { scheme; workload; top })
  | "leakage" -> Ok Leakage
  | "fuzz-smoke" ->
    let* seed = int_field "seed" fields in
    let* count = int_field "count" fields in
    Ok (Fuzz_smoke { seed; count })
  | other -> Error (Printf.sprintf "unknown op %S" other)

let request_of_json = function
  | Json.Obj fields ->
    let* request = decode fields in
    let* () = check request in
    Ok request
  | _ -> Error "request must be a JSON object"

(* ---- content addressing ---- *)

(* The dual independent digests of Security.Observable: two strings that
   collide under [fnv] have no reason to also collide under [fnv2], so
   the pair is a structural fingerprint rather than a single hash a
   lookup could alias behind. *)
let fnv acc x = (acc * 16777619) lxor (x land 0x3fffffff) lxor (x asr 30)
let fnv2 acc x = (acc lxor (x land 0x3fffffff) lxor (x asr 30)) * 16777619

let digests s =
  let h1 = ref 0x811c9dc5 and h2 = ref 0x01000193 in
  String.iter
    (fun c ->
      let x = Char.code c in
      h1 := fnv !h1 x;
      h2 := fnv2 !h2 x)
    s;
  (!h1, !h2)

(* Fingerprint of the compiled program image: the response depends on the
   generated code, so two requests whose JSON collides but whose programs
   differ still get distinct keys. The inputs are in the JSON already, so
   the key builds the program and synthesizes no input. *)
let program_digests scheme workload =
  digests (Marshal.to_string (program scheme workload).Harness.prog [])

let cache_key request =
  let j1, j2 = digests (Json.to_string (request_to_json request)) in
  match request with
  | Simulate { scheme; workload; _ }
  | Sample { scheme; workload; _ }
  | Profile { scheme; workload; _ } ->
    let p1, p2 = program_digests scheme workload in
    [ j1; j2; p1; p2 ]
  | Leakage | Fuzz_smoke _ -> [ j1; j2 ]

(* Partition key: the JSON digests alone. The router needs a cheap,
   deterministic shard assignment; folding in the program fingerprint
   (as [cache_key] does) would force every routed request through
   [Harness.build]. Two requests with identical canonical JSON always
   share a shard — so coalescing and the response cache still see every
   repeat of a request on the same process. *)
let route_key request =
  let j1, j2 = digests (Json.to_string (request_to_json request)) in
  [ j1; j2 ]
