(** Co-resident attacker: a victim and an attacker time-sharing one core
    (the threat model of §III — "scheduled to run on the same server …
    or in the same core through … time sharing").

    The victim executes in slices; between slices the attacker primes the
    shared instruction cache with its own lines and probes which were
    evicted when the victim resumes — classic prime+probe. On a normal
    machine the eviction pattern of each slice tracks which code path the
    victim fetched, i.e. the secret; under SeMPE both paths are fetched
    whatever the secret, so the pattern is secret-independent. *)

type trace = bool array array
(** [trace.(slice).(set)] = the attacker's line in [set] was evicted during
    [slice]. *)

val prime_probe_trace :
  ?machine:Sempe_pipeline.Config.t
  -> ?slice:int
  -> ?max_slices:int
  -> support:Sempe_core.Exec.support
  -> prog:Sempe_isa.Program.t
  -> init_mem:(Sempe_core.Memory.t -> unit)
  -> unit
  -> trace
(** Run [prog] in slices of [slice] instructions (default 200, at most
    [max_slices] slices, default 512), priming and probing every IL1 set
    around each slice. *)

val distance : trace -> trace -> int
(** Number of (slice, set) cells that differ, padding the shorter trace
    with empty slices — the attacker's signal strength for telling two
    secrets apart. *)
