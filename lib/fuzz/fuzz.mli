(** The differential fuzzing driver: corpus replay, then rounds of
    generated (and feedback-mutated) cases checked against the selected
    {!Oracle}s on a {!Sempe_util.Pool} of worker domains.

    Determinism: for a fixed [seed]/[count]/[oracles]/[gen_cfg], the
    outcome — including {!to_json} byte-for-byte — is identical at any
    [workers] value. Rounds have a fixed size independent of the worker
    count; oracle checks are pure share-nothing jobs; every feedback
    decision (fingerprint bookkeeping, mutant scheduling, minimization,
    corpus writes) happens on the driver domain in job order. [budget_s]
    is the one wall-clock input and is consulted between rounds only —
    use [count] alone for reproducible runs.

    The coverage signal is microarchitectural: passing cases are
    fingerprinted by log-bucketed execution shape (secure branches,
    drains, peak nesting, mispredicts, SPM traffic, dynamic length), and
    the first case per fresh fingerprint is mutated to explore its
    neighborhood. *)

type config = {
  seed : int;  (** master seed; per-case seeds derive via {!Sempe_util.Rng.mix} *)
  count : int;  (** cases to execute (fresh + mutants), excluding replays *)
  budget_s : float option;  (** optional wall-clock cutoff, between rounds *)
  oracles : Oracle.t list;  (** checked in list order; first failure reported *)
  workers : int;  (** pool size; 1 = sequential *)
  ctx : Oracle.ctx;
  gen_cfg : Gen.cfg;
  corpus_dir : string option;
      (** replay source and reproducer destination; [None] disables both *)
  minimize : bool;  (** delta-debug failures down to small reproducers *)
  max_failures : int;  (** stop after this many distinct failures *)
}

val default_config : config
(** seed 1, 100 cases, no budget, all oracles, sequential, default
    context and grammar, no corpus, minimization on, stop at 5
    failures. *)

type origin = Generated | Mutant | Replayed of string

val origin_name : origin -> string

(** Leakage localization of a reproducer (see {!Oracle.attribute}): which
    comparison diverged, the rendered attribution naming the divergent PC
    and hardware structure, and its JSON form. *)
type attribution = {
  a_comparison : string;
  a_text : string;
  a_json : Sempe_obs.Json.t;
}

type failure = {
  f_seed : int;
  f_origin : origin;
  f_oracle : string;
  f_message : string;
  f_size : int;  (** statements before minimization *)
  f_min_size : int;  (** statements after minimization *)
  f_min_instrs : int;
      (** static SeMPE instructions of the reproducer (-1 if it no longer
          compiles, which would itself be a bug) *)
  f_source : string;  (** minimized program, concrete syntax *)
  f_trials : int;  (** oracle invocations the minimizer spent *)
  f_repro : string option;  (** corpus path, when persisted *)
  f_attribution : attribution option;
      (** present for state/trace failures whose witness comparison
          diverges *)
}

type outcome = {
  executed : int;
  generated : int;
  mutants : int;
  replayed : int;
  features : int;  (** distinct execution-shape fingerprints observed *)
  failures : failure list;
  wall_s : float;
}

val run : config -> outcome

val to_json : outcome -> Sempe_obs.Json.t
(** Machine-readable outcome. Excludes [wall_s] so the document is
    byte-identical across worker counts and runs. *)

val render : config -> outcome -> string
(** The outcome as text: the case and execution-shape counts under
    [config]'s seed and oracles, then each failure with its minimized
    reproducer and leakage attribution. Excludes [wall_s], like
    {!to_json}. *)
