module Exec = Sempe_core.Exec
module Memory = Sempe_core.Memory
module Warm = Sempe_pipeline.Warm

(* What actually gets marshaled. The memory image — by far the largest
   component of the architectural state — is swapped for a sparse (index,
   value) encoding of its nonzero words before serialization; everything
   else (registers, jbTable, register snapshots, SPM) and the warm
   microarchitectural state (flat arrays and scalars) are serialized
   as-is. Nothing in the payload holds a closure, so plain [Marshal]
   suffices, and a restore is one unmarshal. The bytes never leave
   the process that produced them: [restore] trusts them, and [Marshal]'s
   format is tied to the compiler and to the payload's type. *)
type payload = {
  arch : Exec.arch; (* with the memory swapped for an empty one *)
  warm : Warm.t;
  mem_words : int;
  nz_idx : int array;
  nz_val : int array;
}

type t = {
  bytes : string;
  instructions : int;
  halted : bool;
}

(* Saves and restores are on the sampler's critical sequential path, so
   both touch only the memory pages the program has written: save counts
   and then copies their nonzero words (ascending addresses), restore
   refills just the pages those addresses name. *)
let save ~arch ~warm =
  let mem = Exec.arch_mem arch in
  let n = ref 0 in
  Memory.iter_nonzero (fun _ _ -> incr n) mem;
  let nz_idx = Array.make !n 0 and nz_val = Array.make !n 0 in
  let j = ref 0 in
  Memory.iter_nonzero
    (fun i v ->
      nz_idx.(!j) <- i;
      nz_val.(!j) <- v;
      incr j)
    mem;
  let payload =
    {
      arch = Exec.arch_with_mem arch (Memory.create 0);
      warm;
      mem_words = Memory.length mem;
      nz_idx;
      nz_val;
    }
  in
  {
    bytes = Marshal.to_string payload [];
    instructions = Exec.arch_instructions arch;
    halted = Exec.arch_halted arch;
  }

let restore t =
  let payload : payload = Marshal.from_string t.bytes 0 in
  let mem = Memory.create payload.mem_words in
  Array.iteri (fun j i -> Memory.set mem i payload.nz_val.(j)) payload.nz_idx;
  (Exec.arch_with_mem payload.arch mem, payload.warm)

let instructions t = t.instructions
let halted t = t.halted
let size_bytes t = String.length t.bytes

(* FNV-1a over the serialized payload: two checkpoints with equal digests
   encode the same state (up to hash collision), which is what the fuzzer's
   save/restore/save round-trip oracle compares. *)
let digest t =
  (* FNV-1a offset basis truncated to OCaml's 63-bit int range *)
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001b3)
    t.bytes;
  !h land max_int
