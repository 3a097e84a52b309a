(** The request vocabulary shared by the daemon and the batch CLI.

    Both front ends {!check} a request, {!run} it once into a typed
    {!outcome} and print one rendering of it: {!to_json} (the daemon's
    reply, the CLI's [--json]) or {!to_text} (the CLI's tables). Served
    bytes equal batch bytes, and text cannot drift from JSON, {e by
    construction}. *)

module Json = Sempe_obs.Json
module Scheme = Sempe_core.Scheme
module Sampling = Sempe_sampling.Sampling

type workload =
  | Microbench of { kernel : string; width : int; iters : int; leaf : int }
      (** the Figure-7 nested chain; [kernel] is a {!Sempe_workloads.Kernels}
          name *)
  | Djpeg of { format : string; blocks : int; seed : int }
      (** [format] is PPM, GIF or BMP (case-insensitive) *)
  | Rsa of { key : int }

type sample_params = { interval : int; coverage : float; warmup : int }

type request =
  | Simulate of { scheme : Scheme.t; workload : workload; strict_oob : bool }
      (** full detailed simulation — [sempe-sim microbench/djpeg/rsa] *)
  | Sample of {
      scheme : Scheme.t;
      workload : workload;
      strict_oob : bool;
      params : sample_params;
    }
      (** sampled simulation — [sempe-sim <workload> --sample] and
          [sempe-sim sample] *)
  | Profile of { scheme : Scheme.t; workload : workload; top : int }
      (** per-PC profile — [sempe-sim profile] *)
  | Leakage  (** the §IV-A security matrix — [sempe-sim leakage] *)
  | Fuzz_smoke of { seed : int; count : int }
      (** a corpus-less differential-fuzz round —
          [sempe-sim fuzz --seed S --count N --no-corpus --json] *)

val check : request -> (unit, string) result
(** The range check both front ends apply before {!run}: known kernel and
    format names and every parameter in the range its workload accepts
    ([1 <= leaf <= width + 1], for one). [Error] names the field. *)

type outcome =
  | Simulated of {
      scheme : Scheme.t;
      workload : workload;
      value : int;  (** [main]'s return value: a checksum, or RSA's result *)
      report : Sempe_pipeline.Timing.report;
      slowdown : float option;  (** vs the baseline build; microbench only *)
    }
  | Sampled of {
      scheme : Scheme.t;
      workload : workload;
      estimate : Sampling.estimate;
      full_cycles : int option;
          (** [None] from {!run}; a caller may attach {!full_cycles}, and
              the renderers then add the estimate's error against it *)
    }
  | Profiled of {
      scheme : Scheme.t;
      workload : workload;
      top : int;
      report : Sempe_pipeline.Timing.report;
      profile : Sempe_obs.Profile.t;
      code : Sempe_isa.Instr.t array;  (** to disassemble the profile's PCs *)
    }
  | Leakage_matrix of Sempe_experiments.Security_exp.result list
  | Fuzzed of {
      config : Sempe_fuzz.Fuzz.config;
      outcome : Sempe_fuzz.Fuzz.outcome;
    }

val run : ?workers:int -> request -> outcome
(** Execute one {!check}ed request. Deterministic: the outcome is the same
    at any [workers] (which only bounds the inner measurement parallelism
    of [Sample] and the fuzz pool of [Fuzz_smoke]). *)

val to_json : outcome -> Json.t

val to_text : outcome -> string
(** Trailing newline included. *)

val perform : ?workers:int -> request -> Json.t
(** [to_json (run request)]: the daemon's execution entry point. *)

val full_cycles : Scheme.t -> workload -> strict_oob:bool -> int
(** Cycles of one full detailed run of [workload]'s [scheme] build, the
    reference of [sample --compare-full]. Unlike {!run} on a microbench
    [Simulate], it runs no baseline build, so it times the protected run
    alone. *)

val program : Scheme.t -> workload -> Sempe_workloads.Harness.built
(** The compiled program of [workload] under [scheme], exactly as {!run}
    simulates it (the software schemes get the constant-time kernel
    variants). It reads only the parameters that shape the code: the
    kernel, width and iters of a microbench and the format of a djpeg.
    The leaf, the RSA key and the djpeg image's seed and blocks are
    inputs, and no input is synthesized here: {!cache_key}, [disasm]
    and a microbench [Simulate]'s baseline build call this. *)

val setup :
  Scheme.t ->
  workload ->
  Sempe_workloads.Harness.built * (string * int) list * (string * int array) list
(** {!program} plus the initial globals and arrays {!run} simulates it
    with: for [trace], which attaches its own sink. *)

val describe : workload -> string
(** One-line description of a workload, e.g. ["rsa key=0x1234"]: the
    title of the profile and trace outputs. *)

val request_to_json : request -> Json.t
(** Canonical wire form: an object carrying ["op"] plus the operation's
    parameters, every field explicit (no defaults elided) — the canonical
    form is what {!cache_key} digests, so two spellings of the same
    request share a cache entry. *)

val request_of_json : Json.t -> (request, string) result
(** Strict decode of a wire object, then {!check}: unknown ["op"],
    missing or mistyped fields, unknown scheme names and every value
    {!check} rejects are all [Error] with a message naming the offending
    field. Unknown {e extra} fields are ignored (forward
    compatibility). *)

val digests : string -> int * int
(** Two independent FNV digests of a string — the primitive behind
    {!cache_key} and {!route_key}, also used by the
    {!Router}'s hash ring for its virtual-node points. Strings that
    collide under one digest have no reason to collide under the other. *)

val route_key : request -> int list
(** Partition key for the sharded fleet: the two digests of the
    canonical request JSON, nothing else. Cheap to compute (no program
    build), and identical requests always map to the same shard — so
    coalescing and the shard's response cache still see every repeat of
    a request on one process. Distinct from {!cache_key}, which also
    fingerprints the compiled program image and guards the response
    cache itself. *)

val cache_key : request -> int list
(** Content address of a request's response: two independent FNV digests
    of the canonical request JSON plus, for workload-bearing requests,
    two of the compiled program image ({!program}, via [Marshal]). A
    response may be reused exactly when all four digests match, so a
    single unlucky hash collision cannot alias two different requests.
    The program digests (elements 3 and 4) depend on the scheme and the
    code-shaping parameters only: requests that differ in an input alone
    (leaf, key, seed, blocks) share them, and the JSON digests tell them
    apart. A key costs one {!program} build and synthesizes no input. *)
