(* Branch predictor components: saturating counters, TAGE, BTB and the
   return-address stack. *)

open Sempe_bpred

let accuracy p outcomes =
  let correct = ref 0 in
  List.iter
    (fun (pc, taken) -> if Tage.resolve p ~pc ~taken = taken then incr correct)
    outcomes;
  float_of_int !correct /. float_of_int (List.length outcomes)

let repeat n pattern =
  List.concat (List.init n (fun _ -> pattern))

let test_counters_saturate () =
  let t = Counters.create ~entries:4 ~bits:2 in
  for _ = 1 to 10 do Counters.train t 0 true done;
  Alcotest.(check bool) "saturated taken" true (Counters.taken t 0);
  Counters.train t 0 false;
  Alcotest.(check bool) "one down still taken" true (Counters.taken t 0);
  for _ = 1 to 10 do Counters.train t 0 false done;
  Alcotest.(check bool) "saturated not-taken" false (Counters.taken t 0)

let test_tage_learns_long_pattern () =
  let p = Tage.create () in
  (* period-8 pattern needs real history; a bimodal would get 7/8 at best
     for this mix (6 taken, 2 not-taken). *)
  let pattern =
    [ (3, true); (3, true); (3, false); (3, true);
      (3, true); (3, false); (3, true); (3, true) ]
  in
  ignore (accuracy p (repeat 200 pattern));
  let acc = accuracy p (repeat 100 pattern) in
  Alcotest.(check bool)
    (Printf.sprintf "period-8 learned (%.2f)" acc)
    true (acc > 0.9)

let test_tage_multiple_branches () =
  let p = Tage.create () in
  let stream =
    repeat 150 [ (10, true); (20, false); (30, true); (40, false) ]
  in
  ignore (accuracy p stream);
  let acc = accuracy p stream in
  Alcotest.(check bool) "independent biases" true (acc > 0.95)

let test_tage_reset () =
  let p = Tage.create () in
  ignore (accuracy p (repeat 50 [ (5, true) ]));
  let sig_trained = Tage.signature p in
  Tage.reset p;
  let sig_reset = Tage.signature p in
  Alcotest.(check bool) "signature changes on reset" true (sig_trained <> sig_reset);
  ignore (accuracy p (repeat 50 [ (5, true) ]));
  Alcotest.(check bool) "relearns after reset" true
    (accuracy p (repeat 20 [ (5, true) ]) > 0.9)

let test_signature_reflects_history () =
  (* Same branch, different outcome sequences -> different state. *)
  let train outcomes =
    let p = Tage.create () in
    List.iter (fun taken -> ignore (Tage.resolve p ~pc:9 ~taken)) outcomes;
    Tage.signature p
  in
  Alcotest.(check bool) "outcome history visible" true
    (train [ true; true; true; true ] <> train [ false; false; false; false ])

let test_btb () =
  let btb = Btb.create ~entries:64 ~ways:2 () in
  Alcotest.(check (option int)) "cold miss" None (Btb.lookup btb ~pc:100);
  Btb.update btb ~pc:100 ~target:555;
  Alcotest.(check (option int)) "hit" (Some 555) (Btb.lookup btb ~pc:100);
  Btb.update btb ~pc:100 ~target:777;
  Alcotest.(check (option int)) "retarget" (Some 777) (Btb.lookup btb ~pc:100)

let test_btb_eviction () =
  let btb = Btb.create ~entries:4 ~ways:2 () in
  (* 2 sets x 2 ways: three conflicting entries in set 0 evict the LRU. *)
  Btb.update btb ~pc:0 ~target:1;
  Btb.update btb ~pc:2 ~target:2;
  ignore (Btb.lookup btb ~pc:0);
  (* pc=0 is now MRU *)
  Btb.update btb ~pc:4 ~target:3;
  Alcotest.(check (option int)) "MRU kept" (Some 1) (Btb.lookup btb ~pc:0);
  Alcotest.(check (option int)) "LRU evicted" None (Btb.lookup btb ~pc:2)

let test_ras () =
  let ras = Ras.create ~depth:4 () in
  Alcotest.(check (option int)) "empty pop" None (Ras.pop ras);
  Ras.push ras 10;
  Ras.push ras 20;
  Alcotest.(check (option int)) "lifo" (Some 20) (Ras.pop ras);
  Alcotest.(check (option int)) "lifo 2" (Some 10) (Ras.pop ras);
  (* overflow wraps: deepest entries are lost *)
  List.iter (Ras.push ras) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "depth capped" 4 (Ras.depth_used ras);
  Alcotest.(check (option int)) "top after wrap" (Some 5) (Ras.pop ras)

let prop_predictors_total =
  (* Any resolve sequence is safe, and prediction is deterministic and
     pure. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"predictors total and deterministic" ~count:100
       QCheck.(small_list (pair (int_range 0 100000) bool))
       (fun stream ->
         let p = Tage.create () in
         List.iter (fun (pc, taken) -> ignore (Tage.resolve p ~pc ~taken)) stream;
         let sig0 = Tage.signature p in
         List.for_all
           (fun (pc, _) -> Tage.predict p ~pc = Tage.predict p ~pc)
           stream
         && Tage.signature p = sig0))

let tests =
  [
    Alcotest.test_case "counters saturate" `Quick test_counters_saturate;
    Alcotest.test_case "tage learns long pattern" `Quick test_tage_learns_long_pattern;
    Alcotest.test_case "tage multiple branches" `Quick test_tage_multiple_branches;
    Alcotest.test_case "tage reset" `Quick test_tage_reset;
    Alcotest.test_case "signature reflects history" `Quick test_signature_reflects_history;
    Alcotest.test_case "btb basic" `Quick test_btb;
    Alcotest.test_case "btb eviction" `Quick test_btb_eviction;
    Alcotest.test_case "ras" `Quick test_ras;
    prop_predictors_total;
  ]
