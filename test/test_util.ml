(* Unit and property tests for sempe_util: RNG, statistics and table
   rendering. *)

open Sempe_util

let qtest = QCheck_alcotest.to_alcotest

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues" (Rng.next64 a) (Rng.next64 b)

let test_rng_split () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Rng.next64 child <> Rng.next64 a)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_int_in =
  QCheck.Test.make ~name:"rng int_in inclusive" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let v = Rng.int_in rng lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let f = Rng.float rng in
      f >= 0.0 && f < 1.0)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle permutes" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 30) int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* ---- stats ---- *)

let test_stats_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio ~num:1 ~den:2);
  Alcotest.(check (float 1e-9)) "zero den" 0.0 (Stats.ratio ~num:5 ~den:0)

let prop_summary_mean =
  QCheck.Test.make ~name:"summary mean matches direct" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.observe s) xs;
      let direct = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.Summary.mean s -. direct) < 1e-6
      && Stats.Summary.min s = List.fold_left min infinity xs
      && Stats.Summary.max s = List.fold_left max neg_infinity xs)

let test_summary_empty () =
  (* Regression: min/max of an empty summary used to leak the infinity
     sentinels while mean guarded with 0. All three are 0 at n = 0. *)
  let s = Stats.Summary.create () in
  Alcotest.(check int) "count" 0 (Stats.Summary.count s);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.Summary.mean s);
  Alcotest.(check (float 0.0)) "min" 0.0 (Stats.Summary.min s);
  Alcotest.(check (float 0.0)) "max" 0.0 (Stats.Summary.max s);
  (* and the first observation still seeds the extrema correctly *)
  Stats.Summary.observe s (-2.5);
  Alcotest.(check (float 0.0)) "min after first" (-2.5) (Stats.Summary.min s);
  Alcotest.(check (float 0.0)) "max after first" (-2.5) (Stats.Summary.max s)

let test_summary_percentile () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Stats.Summary.percentile 0.5 s);
  Stats.Summary.observe s 7.0;
  Alcotest.(check int) "count" 1 (Stats.Summary.count s);
  (* a single sample is every percentile *)
  Alcotest.(check (float 0.0)) "single p0" 7.0 (Stats.Summary.percentile 0.0 s);
  Alcotest.(check (float 0.0)) "single p50" 7.0 (Stats.Summary.percentile 0.5 s);
  Alcotest.(check (float 0.0)) "single p100" 7.0 (Stats.Summary.percentile 1.0 s);
  (* out-of-range p clamps rather than raising *)
  Alcotest.(check (float 0.0)) "clamp low" 7.0 (Stats.Summary.percentile (-1.0) s);
  Alcotest.(check (float 0.0)) "clamp high" 7.0 (Stats.Summary.percentile 2.0 s)

let test_summary_percentile_ties () =
  let s = Stats.Summary.create () in
  (* observation order must not matter, and ties collapse to the value *)
  List.iter (Stats.Summary.observe s) [ 3.0; 1.0; 3.0; 2.0; 3.0 ];
  Alcotest.(check (float 0.0)) "p0 is min" 1.0 (Stats.Summary.percentile 0.0 s);
  Alcotest.(check (float 0.0)) "p20 rank 1" 1.0 (Stats.Summary.percentile 0.2 s);
  Alcotest.(check (float 0.0)) "p40 rank 2" 2.0 (Stats.Summary.percentile 0.4 s);
  Alcotest.(check (float 0.0)) "p50 rank 3" 3.0 (Stats.Summary.percentile 0.5 s);
  Alcotest.(check (float 0.0)) "p100 is max" 3.0 (Stats.Summary.percentile 1.0 s);
  (* interleave a query with more observations: cache must invalidate *)
  Stats.Summary.observe s 0.0;
  Alcotest.(check (float 0.0)) "p0 after growth" 0.0
    (Stats.Summary.percentile 0.0 s)

let prop_summary_percentile_sorted =
  QCheck.Test.make ~name:"percentile 1.0 = max, 0.0 = min" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.observe s) xs;
      Stats.Summary.percentile 0.0 s = List.fold_left min infinity xs
      && Stats.Summary.percentile 1.0 s = List.fold_left max neg_infinity xs
      && Stats.Summary.count s = List.length xs)

(* ---- tablefmt ---- *)

let test_tablefmt_render () =
  let out = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "four lines" 4 (List.length lines);
  (match lines with
   | _ :: sep :: _ -> Alcotest.(check bool) "separator dashes" true
                        (String.for_all (fun c -> c = '-' || c = ' ') sep)
   | _ -> Alcotest.fail "expected separator")

let test_tablefmt_arity () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Tablefmt.render: row arity mismatch") (fun () ->
      ignore (Tablefmt.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_tablefmt_formats () =
  Alcotest.(check string) "percent" "31.4%" (Tablefmt.percent 0.314);
  Alcotest.(check string) "times" "10.6x" (Tablefmt.times 10.63);
  Alcotest.(check string) "fixed" "2.50" (Tablefmt.fixed 2 2.5)

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    qtest prop_rng_int_bounds;
    qtest prop_rng_int_in;
    qtest prop_rng_float_unit;
    qtest prop_shuffle_permutes;
    Alcotest.test_case "stats ratio" `Quick test_stats_ratio;
    qtest prop_summary_mean;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary percentile" `Quick test_summary_percentile;
    Alcotest.test_case "summary percentile ties" `Quick test_summary_percentile_ties;
    qtest prop_summary_percentile_sorted;
    Alcotest.test_case "tablefmt render" `Quick test_tablefmt_render;
    Alcotest.test_case "tablefmt arity" `Quick test_tablefmt_arity;
    Alcotest.test_case "tablefmt formats" `Quick test_tablefmt_formats;
  ]
