(** Timing-model instrumentation hook.

    A probe receives one {!uop_event} per committed µop — carrying the
    full per-stage cycle assignment the timing model computed for it — and
    one {!drain_event} per SeMPE drain. Probes are passive: the model
    never reads anything back, so attaching one cannot perturb a single
    cycle, and [Timing.create] without a probe pays nothing (no event is
    even allocated).

    It is the one way to watch a run. The observability library
    ({!Sempe_obs}) builds its per-PC profiles and Perfetto trace sinks on
    top of this interface, and the security library its observables and
    leakage witnesses. *)

type uop_event = {
  uop : Uop.t;
  fetch : int;         (** cycle the µop was fetched *)
  dispatch : int;      (** cycle it entered the back end *)
  issue : int;         (** cycle it won an issue port *)
  complete : int;      (** cycle its result was ready *)
  commit : int;        (** cycle it retired *)
  bucket : Stall.bucket;
      (** the constraint that bound this µop's timeline (critical path) *)
  attributed : int;
      (** commit-frontier cycles charged to [bucket] for this µop; the sum
          over a run (plus the base cycle 0) equals the total cycle count *)
  mispredicted : bool; (** this µop caused a front-end redirect *)
  dcache_miss : bool;  (** load whose latency exceeded the pipelined DL1 *)
  il1_line : int;
      (** IL1 line this µop's fetch accessed, or [-1] when it rode the
          previously fetched line (no cache access at all) *)
  fetch_extra : int;
      (** extra fetch latency beyond the pipelined IL1 hit (0 = hit) *)
  mem_extra : int;
      (** extra data-access latency beyond the pipelined DL1 hit for loads
          {e and} stores (0 = DL1 hit, or not a memory µop) *)
}

type drain_event = {
  reason : Uop.drain_reason;
  spm_cycles : int;    (** SPM transfer cycles of this event *)
  start : int;         (** commit frontier when the drain began *)
  resume : int;        (** cycle dispatch may resume *)
}

type t = {
  on_uop : uop_event -> unit;
  on_drain : drain_event -> unit;
}

val null : t
(** Discards every event. *)
