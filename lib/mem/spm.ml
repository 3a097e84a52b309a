type config = {
  max_snapshots : int;
  snapshot_bytes : int;
  throughput_bytes : int;
  arch_regs : int;
}

let default_config =
  { max_snapshots = 30; snapshot_bytes = 7392; throughput_bytes = 64; arch_regs = 48 }

exception Overflow

type t = {
  cfg : config;
  mutable depth : int;
  mutable high_water : int;
  mutable bytes_moved : int;
}

let create ?(config = default_config) () =
  { cfg = config; depth = 0; high_water = 0; bytes_moved = 0 }

let depth t = t.depth
let high_water t = t.high_water

(* A snapshot slot holds two register states; each state's share of the slot
   covers the registers plus their slice of RAT/metadata, so the per-register
   transfer cost is half a slot divided by the register count. *)
let bytes_per_reg t = t.cfg.snapshot_bytes / 2 / t.cfg.arch_regs

let transfer t bytes =
  t.bytes_moved <- t.bytes_moved + bytes;
  (bytes + t.cfg.throughput_bytes - 1) / t.cfg.throughput_bytes

let push_full_save t =
  if t.depth >= t.cfg.max_snapshots then raise Overflow;
  t.depth <- t.depth + 1;
  if t.depth > t.high_water then t.high_water <- t.depth;
  transfer t (bytes_per_reg t * t.cfg.arch_regs)

let save_modified t ~modified =
  assert (t.depth > 0);
  transfer t (bytes_per_reg t * modified)

let read_modified t ~modified =
  assert (t.depth > 0);
  transfer t (bytes_per_reg t * modified)

let restore t ~modified_union =
  assert (t.depth > 0);
  t.depth <- t.depth - 1;
  transfer t (bytes_per_reg t * modified_union)

let bytes_moved t = t.bytes_moved
