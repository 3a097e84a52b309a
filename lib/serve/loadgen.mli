(** Load generator for the serving daemon: N concurrent client
    connections replaying a request mix, with latency percentiles,
    throughput and the daemon-side cache hit rate over the run.

    Closed-loop by default (each client issues its next request as soon
    as the previous reply lands); with [rate_hz] set, open-loop per
    client: request [i] is {e scheduled} at [start + i/rate] and its
    latency is measured from the scheduled time, so a stalling daemon
    accrues queueing delay instead of hiding it (coordinated omission).

    Clients rotate through the mix starting at their own index, so at any
    moment the in-flight requests differ across connections — the
    coalescing and cache paths both get exercised. *)

type config = {
  clients : int;  (** concurrent connections *)
  requests_per_client : int;
  mix : Api.request list;  (** non-empty; rotated per client *)
  rate_hz : float option;  (** per-client arrival rate; [None] = closed loop *)
}

type outcome = {
  sent : int;
  completed : int;  (** [ok] replies *)
  errors : int;  (** daemon-reported error replies (timeout, failed, ...) *)
  dropped : int;  (** no reply: connect failure, closed connection, busy *)
  wall_s : float;
  throughput : float;  (** completed replies per second *)
  samples : int;  (** latency observations behind the percentiles *)
  mean_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float option;
      (** [None] below {!p99_floor} samples, where nearest-rank p99
          silently equals the max *)
  max_s : float;
  hit_rate : float;
      (** daemon result-cache hits over lookups during the run window
          (coalesced joins count as lookups that missed) *)
  server_stats : Sempe_obs.Json.t option;  (** daemon stats after the run *)
}

val p99_floor : int
(** Minimum sample count (100) for a reported p99: below it the
    nearest-rank 99th percentile is rank [ceil(0.99 n) = n] — the
    sample max wearing a fancier name — so it is withheld instead
    ([p99_s = None], [null] in the JSON form). *)

val gated_p99 : Sempe_util.Stats.Summary.t -> float option
(** The p99 policy by itself: [None] below {!p99_floor} observations,
    the nearest-rank percentile otherwise. *)

val run : Listener.addr -> config -> outcome
(** @raise Invalid_argument on an empty mix or non-positive counts. *)

val to_json : outcome -> Sempe_obs.Json.t

val render : outcome -> string
(** Human-readable summary, one metric per line. *)
