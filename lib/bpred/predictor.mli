(** Common interface for conditional branch direction predictors.

    The timing model consults the predictor for every committed conditional
    branch that is {e not} a secure jump (sJMP bypasses prediction entirely,
    §IV-E of the paper), then trains it with the actual outcome. *)

type t = {
  name : string;
  predict : pc:int -> bool;        (** predicted direction for the branch at [pc] *)
  update : pc:int -> taken:bool -> unit;  (** train with the resolved outcome *)
  reset : unit -> unit;            (** return to initial state *)
  snapshot_signature : unit -> int;
  (** A hash of the internal state. The security tests use it to check
      whether two executions left the predictor in distinguishable states
      (the branch predictor side channel of §I). *)
  save_state : unit -> string;
  (** The mutable internal state as a plain-data [Marshal] string — no
      closures, so [Marshal] needs no [Closures] flag. Paired with
      {!load_state} this is what lets a sampling checkpoint revive a
      warmed predictor inside a freshly constructed instance. The bytes
      never leave the process that produced them: {!load_state} trusts
      them, and [Marshal]'s format is tied to the compiler. *)
  load_state : string -> unit;
  (** Overwrite the internal state with bytes from {!save_state} of an
      instance created with the same configuration.
      @raise Invalid_argument on a shape mismatch. *)
}

val always_taken : unit -> t
val always_not_taken : unit -> t
