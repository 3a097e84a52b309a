let ratio ~num ~den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

module Summary = struct
  (* A running mean, plus every raw sample (amortized-doubling buffer) so
     order statistics can be asked after the fact. *)
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable min : float;
    mutable max : float;
    mutable samples : float array;
    (* cached ascending copy of the first [n] samples; invalidated by
       [observe] so repeated percentile queries sort once *)
    mutable sorted : float array option;
  }

  let create () =
    { n = 0; mean = 0.0; min = infinity; max = neg_infinity; samples = [||]; sorted = None }

  let observe t x =
    if t.n >= Array.length t.samples then begin
      let grown = Array.make (Stdlib.max 8 (2 * Array.length t.samples)) 0.0 in
      Array.blit t.samples 0 grown 0 t.n;
      t.samples <- grown
    end;
    t.samples.(t.n) <- x;
    t.sorted <- None;
    t.n <- t.n + 1;
    t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean

  (* Nearest-rank percentile: the smallest sample such that at least
     [p * n] samples are <= it (rank = ceil (p * n), clamped to 1..n).
     [p] is a fraction in [0, 1]; an empty summary yields 0 like [mean]. *)
  let percentile p t =
    if t.n = 0 then 0.0
    else begin
      let sorted =
        match t.sorted with
        | Some s -> s
        | None ->
          let s = Array.sub t.samples 0 t.n in
          Array.sort compare s;
          t.sorted <- Some s;
          s
      in
      let p = Stdlib.min 1.0 (Stdlib.max 0.0 p) in
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      let rank = Stdlib.min t.n (Stdlib.max 1 rank) in
      sorted.(rank - 1)
    end

  (* Like [mean], the extrema of an empty summary are 0 rather than the
     (+/-) infinity sentinels the update step uses internally. *)
  let min t = if t.n = 0 then 0.0 else t.min
  let max t = if t.n = 0 then 0.0 else t.max
end
