module Stride = struct
  type entry = {
    mutable tag : int;
    mutable last_addr : int;
    mutable stride : int;
    mutable confidence : int;
  }

  type t = { table : entry array; degree : int; buf : int array }

  let create ?(entries = 64) ?(degree = 1) () =
    assert (entries land (entries - 1) = 0);
    {
      table =
        Array.init entries (fun _ ->
            { tag = -1; last_addr = 0; stride = 0; confidence = 0 });
      degree;
      buf = Array.make degree 0;
    }

  let candidate t i = t.buf.(i)

  (* Returns the number of candidates written into the internal buffer
     (read back with [candidate]) instead of consing a list: this runs
     once per load/store in both execution modes. *)
  let observe t ~pc ~addr =
    let e = t.table.(pc land (Array.length t.table - 1)) in
    if e.tag <> pc then begin
      e.tag <- pc;
      e.last_addr <- addr;
      e.stride <- 0;
      e.confidence <- 0;
      0
    end
    else begin
      let stride = addr - e.last_addr in
      if stride = e.stride && stride <> 0 then begin
        if e.confidence < 3 then e.confidence <- e.confidence + 1
      end
      else begin
        e.stride <- stride;
        e.confidence <- 0
      end;
      e.last_addr <- addr;
      if e.confidence >= 2 && e.stride <> 0 then begin
        for i = 0 to t.degree - 1 do
          Array.unsafe_set t.buf i (addr + (e.stride * (i + 1)))
        done;
        t.degree
      end
      else 0
    end
end

module Stream = struct
  type stream = { mutable last_line : int; mutable length : int; mutable lru : int }

  type t = {
    streams : stream array;
    degree : int;
    line_bytes : int;
    buf : int array;
    mutable clock : int;
  }

  let create ?(streams = 8) ?(degree = 2) ?(line_bytes = 64) () =
    {
      streams = Array.init streams (fun _ -> { last_line = -1; length = 0; lru = 0 });
      degree;
      line_bytes;
      buf = Array.make degree 0;
      clock = 0;
    }

  let candidate t i = t.buf.(i)

  let observe_miss t ~addr =
    let line = addr / t.line_bytes in
    t.clock <- t.clock + 1;
    let rec find i =
      if i >= Array.length t.streams then None
      else
        let s = t.streams.(i) in
        if s.last_line >= 0 && line - s.last_line >= 0 && line - s.last_line <= 2
        then Some s
        else find (i + 1)
    in
    match find 0 with
    | Some s ->
      s.last_line <- line;
      s.length <- s.length + 1;
      s.lru <- t.clock;
      if s.length >= 2 then begin
        for i = 0 to t.degree - 1 do
          Array.unsafe_set t.buf i ((line + i + 1) * t.line_bytes)
        done;
        t.degree
      end
      else 0
    | None ->
      let victim =
        Array.fold_left
          (fun best s -> if s.lru < best.lru then s else best)
          t.streams.(0) t.streams
      in
      victim.last_line <- line;
      victim.length <- 1;
      victim.lru <- t.clock;
      0
end
