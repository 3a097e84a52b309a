(** The warmable microarchitectural state of the machine — cache hierarchy,
    branch direction predictor, BTB, RAS, indirect-target predictor, and
    the fetch-line tracker that dedups instruction-cache accesses — bundled
    as one value with the update protocol both execution modes share.

    {!Timing} owns a [Warm.t] and routes every microarchitectural update
    through it; the fast-forward mode of [Sempe_core.Exec] drives the same
    functions directly, without any cycle accounting. Because both modes
    call the identical code in the identical order, the state a
    fast-forward (functional-warming) run leaves behind at instruction [n]
    is exactly the state a full detailed run has fed to its own [Warm.t]
    after [n] committed instructions — which is what makes
    checkpoint-and-measure sampling sound.

    A [Warm.t] is plain data — flat arrays, bytes and scalars, no
    closures — so [Sempe_sampling.Checkpoint] marshals it as it is, with
    no [Closures] flag. [Marshal]'s format is tied to the compiler and to
    the type, so those bytes never leave the producing process. *)

type t

val create : ?machine:Config.t -> unit -> t
(** Fresh (cold) state for the given machine model; the direction
    predictor is a default-configuration TAGE. *)

val hierarchy : t -> Sempe_mem.Hierarchy.t
val btb : t -> Sempe_bpred.Btb.t
val ras : t -> Sempe_bpred.Ras.t
val ittage : t -> Sempe_bpred.Ittage.t

val lat_l1 : t -> int
(** The hierarchy's L1 hit latency (the pipelined-front-end baseline
    against which extra miss latency is measured). *)

val fetch : t -> pc:int -> int
(** Instruction fetch for the instruction at [pc]: accesses the IL1 only
    when [pc] leaves the previously fetched cache line. Returns the extra
    latency beyond the pipelined L1 hit (0 for a same-line fetch or an L1
    hit). *)

val fetch_line : t -> int
(** The IL1 line index of the most recent {!fetch} ([-1] before the first
    one). Comparing the value across a [fetch] call tells a passive
    observer whether that fetch touched the cache at all — used by the
    leakage witness to reconstruct the instruction-cache access stream
    without perturbing it. *)

val data : t -> pc:int -> word_addr:int -> write:bool -> int
(** Data access for one word; drives the DL1/L2 and both prefetchers.
    Returns the access latency. *)

type transfer = Btb_hit | Btb_miss

val taken_transfer : t -> pc:int -> target:int -> transfer
(** Correctly-anticipated taken control flow (jumps, calls, correctly
    predicted taken branches): consult and train the BTB. [Btb_miss] means
    the front end pays a decode-redirect bubble. *)

(** Constant constructors only: [cond_branch] runs once per committed
    conditional branch in both execution modes, and a payload-carrying
    result would allocate there. *)
type cond =
  | Cond_correct_not_taken
  | Cond_correct_taken_hit  (** taken, predicted, BTB had the target *)
  | Cond_correct_taken_miss  (** taken, predicted, decode-redirect bubble *)
  | Cond_mispredict

val cond_branch : t -> pc:int -> taken:bool -> target:int -> cond
(** A committed, non-secure conditional branch: predict and train the
    TAGE direction predictor ({!Sempe_bpred.Tage.resolve}), and the BTB
    as appropriate: a mispredicted taken branch still installs its
    target. *)

type target_pred = Pred_hit | Pred_miss

val call : t -> pc:int -> target:int -> return_to:int -> transfer
val ret : t -> target:int -> target_pred
val indirect : t -> pc:int -> target:int -> target_pred

val predictor_signature : t -> int
(** Combined hash over direction predictor, BTB and indirect predictor
    state — the branch-predictor side channel's observable. *)

val cache_signature : t -> int
