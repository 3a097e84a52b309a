(** TAGE conditional branch predictor (Seznec, MICRO 2011), the predictor the
    paper's baseline uses (31KB TAGE, Table II).

    A bimodal base predictor backs a set of tagged tables indexed with
    geometrically increasing global-history lengths. Prediction comes from
    the longest-history table whose tag matches; allocation on mispredict
    steals an entry with zero usefulness from a longer table. This is a
    faithful (if compact) TAGE: folded-history indexing, 3-bit signed
    prediction counters, 2-bit usefulness counters with periodic aging, and
    the weak "newly allocated" alternate-prediction rule. *)

type config = {
  num_tables : int;      (** tagged tables, default 6 *)
  table_bits : int;      (** log2 entries per tagged table, default 10 *)
  tag_bits : int;        (** tag width, default 9 *)
  min_history : int;     (** shortest history length, default 4 *)
  max_history : int;     (** longest history length, default 128 *)
  base_bits : int;       (** log2 entries of the bimodal base, default 12 *)
}

val default_config : config
(** Approximates the paper's 31KB budget. *)

type t
(** Plain data — flat int arrays, bytes and scalars, no closures — so a
    [Sempe_pipeline.Warm.t] that holds one marshals as it is. *)

val create : ?config:config -> unit -> t
(** A cold predictor: empty tagged tables over a weakly not-taken
    bimodal base. *)

val resolve : t -> pc:int -> taken:bool -> bool
(** One committed conditional branch: predict the branch at [pc], train
    with its resolved direction [taken] through the same table lookup,
    and return the prediction. The timing model and the fast-forward
    mode call this, through [Warm.cond_branch], for every non-secure
    conditional branch. *)

val predict : t -> pc:int -> bool
(** The prediction {!resolve} would return for [pc] now. Pure: [t] is
    left untouched. For tests. *)

val reset : t -> unit
(** Back to the state {!create} returns. *)

val signature : t -> int
(** Hash of the table contents and history position, for the security
    observables (the branch-predictor side channel of §I). *)
