type config = {
  il1 : Cache.config;
  dl1 : Cache.config;
  l2 : Cache.config;
  lat_l1 : int;
  lat_l2 : int;
  lat_mem : int;
}

let default_config =
  {
    il1 = { Cache.size_bytes = 16 * 1024; line_bytes = 64; ways = 2 };
    dl1 = { Cache.size_bytes = 32 * 1024; line_bytes = 64; ways = 2 };
    l2 = { Cache.size_bytes = 256 * 1024; line_bytes = 64; ways = 2 };
    lat_l1 = 3;
    lat_l2 = 12;
    lat_mem = 180;
  }

type t = {
  cfg : config;
  il1 : Cache.t;
  dl1 : Cache.t;
  l2 : Cache.t;
  stride : Prefetch.Stride.t;
  stream : Prefetch.Stream.t;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    il1 = Cache.create config.il1;
    dl1 = Cache.create config.dl1;
    l2 = Cache.create config.l2;
    stride = Prefetch.Stride.create ();
    stream = Prefetch.Stream.create ~line_bytes:config.l2.Cache.line_bytes ();
  }

let config_of t = t.cfg

(* An L2 access that misses consults the stream prefetcher and installs its
   candidates into the L2 only (next-level prefetching). *)
let l2_access t ~addr ~write =
  match Cache.access t.l2 ~addr ~write with
  | Cache.Hit -> t.cfg.lat_l2
  | Cache.Miss ->
    let n = Prefetch.Stream.observe_miss t.stream ~addr in
    for i = 0 to n - 1 do
      ignore (Cache.prefetch_fill t.l2 ~addr:(Prefetch.Stream.candidate t.stream i))
    done;
    t.cfg.lat_mem

let inst_fetch t ~addr =
  match Cache.access t.il1 ~addr ~write:false with
  | Cache.Hit -> t.cfg.lat_l1
  | Cache.Miss -> t.cfg.lat_l1 + l2_access t ~addr ~write:false

let data_access t ~pc ~addr ~write =
  let latency =
    match Cache.access t.dl1 ~addr ~write with
    | Cache.Hit -> t.cfg.lat_l1
    | Cache.Miss -> t.cfg.lat_l1 + l2_access t ~addr ~write
  in
  (* Stride prefetches fill the DL1 (and the L2 on the way, as a real
     hierarchy would). This runs once per load/store in both execution
     modes. *)
  let n = Prefetch.Stride.observe t.stride ~pc ~addr in
  for i = 0 to n - 1 do
    let a = Prefetch.Stride.candidate t.stride i in
    if Cache.prefetch_fill t.dl1 ~addr:a then
      ignore (Cache.prefetch_fill t.l2 ~addr:a)
  done;
  latency

let il1 t = t.il1
let dl1 t = t.dl1
let l2 t = t.l2

let signature t =
  (Cache.signature t.il1 * 31) + (Cache.signature t.dl1 * 17) + Cache.signature t.l2
