(* Attack demonstrations from the threat model (paper section III):

   1. prime+probe on a shared data cache - the attacker learns which sets
      the victim touched;
   2. the branch-predictor channel - the predictor state after the victim
      runs depends on the secret on a normal machine, not under SeMPE;
   3. a full co-resident attack: attacker and RSA victim time-share the
      core, the attacker primes and probes the instruction cache between
      slices, and the per-slice eviction patterns expose (baseline) or
      hide (SeMPE) the key.

   Run with: dune exec examples/attack_demo.exe *)

module Cache = Sempe_mem.Cache
module Attacker = Sempe_security.Attacker
module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa
module Scheme = Sempe_core.Scheme
module Observable = Sempe_security.Observable
module Sink = Sempe_obs.Sink

let () =
  print_endline "=== attack 1: prime+probe on a shared cache ===\n";
  let cache =
    Cache.create { Cache.name = "shared"; size_bytes = 4096; line_bytes = 64; ways = 1 }
  in
  let nsets = Cache.num_sets cache in
  (* The attacker fills every set with its own lines. *)
  let prime = List.init nsets (fun s -> s * 64) in
  (* The victim touches a secret-dependent set. *)
  let secret_set = 13 in
  let victim () =
    ignore (Cache.access cache ~addr:((nsets + secret_set) * 64) ~write:false)
  in
  let evictions = Attacker.prime_and_probe cache ~prime ~victim in
  let hits =
    List.filteri (fun s _ -> evictions.(s)) (List.init nsets (fun s -> s))
  in
  Printf.printf "victim touched secret set %d; attacker observes evictions in sets: %s\n"
    secret_set
    (String.concat ", " (List.map string_of_int hits));
  print_endline
    "-> on shared hardware, addresses used under a secret branch are visible.\n";

  print_endline "=== attack 2: the branch-predictor channel on RSA ===\n";
  let bpred_sig scheme ~key =
    let built = Harness.build scheme Rsa.program in
    let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
    let recorder = Observable.recorder () in
    let outcome =
      Harness.run ~globals ~arrays
        ~sink:(Sink.of_probe (Observable.probe recorder))
        built
    in
    (Observable.view recorder outcome).Observable.bpred_sig
  in
  List.iter
    (fun scheme ->
      let s1 = bpred_sig scheme ~key:0x0000 in
      let s2 = bpred_sig scheme ~key:0xffff in
      Printf.printf "%-10s predictor state after key=0x0000 vs key=0xffff: %s\n"
        (Scheme.name scheme)
        (if s1 = s2 then "IDENTICAL - the sJMP never trains the predictor"
         else "DIFFERS - the key is recoverable from predictor probing"))
    [ Scheme.Baseline; Scheme.Sempe ];

  print_endline "\n=== attack 3: co-resident prime+probe on the icache ===\n";
  let trace scheme key =
    let built = Harness.build scheme Rsa.program in
    let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
    Sempe_security.Coresident.prime_probe_trace
      ~support:(Scheme.support scheme)
      ~prog:built.Sempe_workloads.Harness.prog
      ~init_mem:(Harness.init_mem_of built ~globals ~arrays)
      ()
  in
  List.iter
    (fun scheme ->
      let t1 = trace scheme 0x0000 and t2 = trace scheme 0xffff in
      let d = Sempe_security.Coresident.distance t1 t2 in
      Printf.printf
        "%-10s eviction patterns for key=0x0000 vs key=0xffff differ in %d \
         (slice,set) cells%s\n"
        (Scheme.name scheme) d
        (if d = 0 then " - the attacker learns nothing"
         else " - the victim's code path is visible slice by slice"))
    [ Scheme.Baseline; Scheme.Sempe ]
