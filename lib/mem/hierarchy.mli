(** Three-level memory hierarchy: split IL1/DL1 backed by a unified L2 and
    DRAM, with the baseline's prefetchers (stride at L1, stream at L2).

    Sizes default to Table II of the paper: 16KB 2-way IL1, 32KB 2-way DL1,
    256KB 2-way L2, 64B lines. Latencies are load-to-use cycles at 2 GHz. *)

type config = {
  il1 : Cache.config;
  dl1 : Cache.config;
  l2 : Cache.config;
  lat_l1 : int;   (** hit latency of either L1 (default 3) *)
  lat_l2 : int;   (** L2 hit latency (default 12) *)
  lat_mem : int;  (** DRAM latency (default 180) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val config_of : t -> config

val inst_fetch : t -> addr:int -> int
(** Latency in cycles to fetch the instruction line at byte address
    [addr]. *)

val data_access : t -> pc:int -> addr:int -> write:bool -> int
(** Latency in cycles for a load or store by the instruction at [pc] to
    byte address [addr]. Trains the stride prefetcher; L2 misses train the
    stream prefetcher. Stores are modeled write-allocate. *)

val il1 : t -> Cache.t
val dl1 : t -> Cache.t
val l2 : t -> Cache.t

val signature : t -> int
(** Combined hash of all cache states (attacker-visible). *)
