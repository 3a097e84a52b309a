(* Tests of the observability layer: the CPI stall-stack invariant (every
   cycle attributed to exactly one bucket), null-sink identity (attaching
   no sink and attaching Sink.null produce the same report), the bounded
   counter registry, the per-PC profile's exact aggregate cross-checks
   against the run report, and the structure of the emitted Perfetto /
   JSON-lines traces (parsed back with a small JSON reader). *)

module Run = Sempe_core.Run
module Scheme = Sempe_core.Scheme
module Timing = Sempe_pipeline.Timing
module Stall = Sempe_pipeline.Stall
module Warm = Sempe_pipeline.Warm
module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Stats = Sempe_util.Stats
module Json = Sempe_obs.Json
module Counters = Sempe_obs.Counters
module Profile = Sempe_obs.Profile
module Sink = Sempe_obs.Sink
module Report = Sempe_obs.Report

let qtest = QCheck_alcotest.to_alcotest

let stall_sum (r : Timing.report) =
  Array.fold_left ( + ) 0 r.Timing.stall_stack

let rsa_outcome ?sink scheme =
  let built = Harness.build scheme Rsa.program in
  let globals, arrays = Rsa.inputs ~key:0x1234 ~base:1234 ~modulus:99991 in
  Harness.run ~globals ~arrays ?sink built

let fib_outcome ?sink ?(width = 3) scheme =
  let spec = { MB.kernel = Kernels.fibonacci; width; iters = 1 } in
  let built = Harness.build scheme (MB.program ~ct:false spec) in
  Harness.run ~globals:(MB.secrets_for_leaf ~width ~leaf:1) ?sink built

(* ---- stall stack ---- *)

let test_stall_stack_sums () =
  List.iter
    (fun scheme ->
      let r = (rsa_outcome scheme).Run.timing in
      Alcotest.(check int)
        (Printf.sprintf "rsa %s: buckets sum to cycles" (Scheme.name scheme))
        r.Timing.cycles (stall_sum r))
    [ Scheme.Baseline; Scheme.Sempe; Scheme.Cte ];
  let r = (fib_outcome Scheme.Sempe).Run.timing in
  Alcotest.(check int) "fib sempe: buckets sum to cycles" r.Timing.cycles
    (stall_sum r)

let test_stall_stack_drain_bucket () =
  (* SeMPE drains + SPM transfers exist, so the drain bucket must be
     charged; the baseline has no secure branches, so it must not be. *)
  let sempe = (rsa_outcome Scheme.Sempe).Run.timing in
  let base = (rsa_outcome Scheme.Baseline).Run.timing in
  let drain r = r.Timing.stall_stack.(Stall.index Stall.Drain) in
  Alcotest.(check bool) "sempe charges drain cycles" true (drain sempe > 0);
  Alcotest.(check int) "baseline has no drain cycles" 0 (drain base)

let test_stall_stack_render () =
  let r = (rsa_outcome Scheme.Sempe).Run.timing in
  let s = Report.render_stall_stack r in
  Alcotest.(check bool) "mentions total" true
    (String.length s > 0
    && Stall.all
       |> List.exists (fun b ->
              r.Timing.stall_stack.(Stall.index b) > 0
              &&
              (* every charged bucket appears by name *)
              let name = Stall.name b in
              let rec find i =
                i + String.length name <= String.length s
                && (String.sub s i (String.length name) = name || find (i + 1))
              in
              find 0))

(* ---- null-sink identity ---- *)

let test_null_sink_identity () =
  let state (o : Run.outcome) =
    (o.Run.timing, Warm.cache_signature o.Run.warm, Warm.predictor_signature o.Run.warm)
  in
  let plain = state (rsa_outcome Scheme.Sempe) in
  let nulled = state (rsa_outcome ~sink:Sink.null Scheme.Sempe) in
  Alcotest.(check bool) "reports and warm state identical" true (plain = nulled)

(* ---- counters ---- *)

let test_counters_exact () =
  let c = Counters.create ~capacity:4 in
  List.iter (fun k -> Counters.add c ~key:k k) [ 10; 20; 30 ];
  Counters.incr c ~key:20;
  Alcotest.(check bool) "exact while under capacity" true (Counters.exact c);
  Alcotest.(check int) "count 20" 21 (Counters.count c ~key:20);
  Alcotest.(check int) "count absent" 0 (Counters.count c ~key:99);
  Alcotest.(check int) "cardinality" 3 (Counters.cardinality c);
  Alcotest.(check int) "total" 61 (Counters.total c);
  Alcotest.(check (list (pair int int))) "top order"
    [ (30, 30); (20, 21); (10, 10) ] (Counters.top c);
  Alcotest.(check (list (pair int int))) "top n" [ (30, 30) ]
    (Counters.top ~n:1 c)

let test_counters_eviction () =
  let c = Counters.create ~capacity:2 in
  Counters.add c ~key:1 100;
  Counters.add c ~key:2 5;
  (* key 3 evicts the minimum (key 2, count 5) and inherits 5 + 7 *)
  Counters.add c ~key:3 7;
  Alcotest.(check bool) "no longer exact" false (Counters.exact c);
  Alcotest.(check int) "evictions" 1 (Counters.evictions c);
  Alcotest.(check int) "cardinality bounded" 2 (Counters.cardinality c);
  Alcotest.(check int) "evicted key gone" 0 (Counters.count c ~key:2);
  Alcotest.(check int) "newcomer inherits min" 12 (Counters.count c ~key:3);
  Alcotest.(check int) "heavy hitter survives" 100 (Counters.count c ~key:1);
  (* total stays the exact sum of weights regardless of evictions *)
  Alcotest.(check int) "total exact" 112 (Counters.total c)

let test_counters_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Counters.create: capacity must be >= 1") (fun () ->
      ignore (Counters.create ~capacity:0))

let prop_counters_total_exact =
  QCheck.Test.make ~name:"counters total is exact under eviction" ~count:300
    QCheck.(list (pair (int_bound 20) (int_bound 50)))
    (fun adds ->
      let c = Counters.create ~capacity:3 in
      List.iter (fun (k, w) -> Counters.add c ~key:k w) adds;
      Counters.total c = List.fold_left (fun acc (_, w) -> acc + w) 0 adds
      && Counters.cardinality c <= 3)

(* ---- profile cross-checks ---- *)

let test_profile_crosschecks () =
  let p = Profile.create () in
  let r =
    (rsa_outcome ~sink:(Sink.of_probe (Profile.probe p)) Scheme.Sempe)
      .Run.timing
  in
  Alcotest.(check int) "uop events = instructions" r.Timing.instructions
    (Profile.uops p);
  Alcotest.(check int) "drain events = drains" r.Timing.drains
    (Profile.drains p);
  Alcotest.(check int) "mispredict total matches report" r.Timing.mispredicts
    (Counters.total (Profile.branch_mispredicts p));
  (* the report's DL1 misses also count stores; the profile only tracks
     loads, so it is a positive lower bound *)
  let load_misses = Counters.total (Profile.load_misses p) in
  Alcotest.(check bool) "load-miss total bounded by dl1 misses" true
    (load_misses > 0 && load_misses <= r.Timing.dl1_misses);
  Alcotest.(check int) "spm-cycle total matches report" r.Timing.spm_cycles
    (Counters.total (Profile.sjmp_spm_cycles p));
  let rendered = Profile.render p in
  Alcotest.(check bool) "render non-empty" true (String.length rendered > 0)

(* ---- a small JSON reader for structural trace validation ---- *)

exception Parse of string

let parse_json (s : string) : Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then raise (Parse "eof");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    let got = next () in
    if got <> c then raise (Parse (Printf.sprintf "expected %c, got %c" c got))
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
        (match next () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let hex = String.init 4 (fun _ -> next ()) in
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
        | c -> raise (Parse (Printf.sprintf "bad escape %c" c)));
        go ())
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num c | None -> false) do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Json.Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Json.Float f
      | None -> raise (Parse (Printf.sprintf "bad number %S" text)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then (expect '}'; Json.Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Json.Obj (List.rev ((k, v) :: acc))
          | c -> raise (Parse (Printf.sprintf "bad object sep %c" c))
        in
        members []
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then (expect ']'; Json.List [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elements (v :: acc)
          | ']' -> Json.List (List.rev (v :: acc))
          | c -> raise (Parse (Printf.sprintf "bad list sep %c" c))
        in
        elements []
    | Some '"' -> Json.Str (parse_string ())
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | Some _ -> parse_number ()
    | None -> raise (Parse "eof")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Parse "trailing garbage");
  v

let prop_json_roundtrip =
  (* our reader must invert our writer, so structural trace checks are
     trustworthy *)
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self k ->
          let leaf =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) int;
                map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 10));
              ]
          in
          if k = 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun l -> Json.List l) (list_size (int_bound 4) (self (k / 2)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (string_size ~gen:printable (int_bound 6)) (self (k / 2))));
              ]))
  in
  QCheck.Test.make ~name:"json writer/reader round trip" ~count:300
    (QCheck.make gen) (fun j ->
      (* object keys may repeat in the generator; member lookup order is
         preserved by both sides, so structural equality still holds *)
      parse_json (Json.to_string j) = j)

(* ---- trace sinks ---- *)

let with_temp_file f =
  let path = Filename.temp_file "sempe-test-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let member_exn name k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing member %S" name k

let test_perfetto_trace_structure () =
  with_temp_file @@ fun path ->
  let r =
    let oc = open_out path in
    let sink = Sink.perfetto oc in
    let outcome = fib_outcome ~sink ~width:1 Scheme.Sempe in
    sink.Sink.close ();
    close_out oc;
    outcome.Run.timing
  in
  let doc = parse_json (read_file path) in
  let events =
    match member_exn "trace" "traceEvents" doc with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Alcotest.(check bool) "displayTimeUnit present" true
    (Json.member "displayTimeUnit" doc <> None);
  let slices = ref 0 and stage_tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str k = member_exn "event" k ev in
      match str "ph" with
      | Json.Str "M" -> (
        (* metadata: process_name / thread_name *)
        match member_exn "metadata" "name" ev with
        | Json.Str ("process_name" | "thread_name") -> ()
        | _ -> Alcotest.fail "unexpected metadata event")
      | Json.Str "X" -> (
        incr slices;
        (match (str "ts", member_exn "slice" "dur" ev) with
        | Json.Int ts, Json.Int dur ->
          if ts < 0 || dur < 0 then Alcotest.fail "negative ts/dur"
        | _ -> Alcotest.fail "non-integer ts/dur");
        (match str "name" with
        | Json.Str _ -> ()
        | _ -> Alcotest.fail "slice without name");
        match str "tid" with
        | Json.Int tid -> Hashtbl.replace stage_tids tid ()
        | _ -> Alcotest.fail "slice without tid")
      | _ -> Alcotest.fail "unexpected phase")
    events;
  (* four pipeline-stage slices per committed instruction, plus one slice
     per drain on the drain track *)
  Alcotest.(check int) "4 slices per instruction + drains"
    ((4 * r.Timing.instructions) + r.Timing.drains)
    !slices;
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "tid %d used" tid)
        true (Hashtbl.mem stage_tids tid))
    [ 1; 2; 3; 4 ]

let test_jsonl_trace_structure () =
  with_temp_file @@ fun path ->
  let r =
    let oc = open_out path in
    let sink = Sink.jsonl oc in
    let outcome = fib_outcome ~sink ~width:1 Scheme.Sempe in
    sink.Sink.close ();
    close_out oc;
    outcome.Run.timing
  in
  let lines =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one record per uop + drain"
    (r.Timing.instructions + r.Timing.drains)
    (List.length lines);
  List.iter
    (fun line ->
      let j = parse_json line in
      match member_exn "record" "type" j with
      | Json.Str "uop" ->
        List.iter
          (fun k -> ignore (member_exn "uop record" k j))
          [ "pc"; "cls"; "fetch"; "dispatch"; "issue"; "complete"; "commit";
            "bucket"; "attributed" ]
      | Json.Str "drain" ->
        List.iter
          (fun k -> ignore (member_exn "drain record" k j))
          [ "reason"; "spm_cycles"; "start"; "resume" ]
      | _ -> Alcotest.fail "unknown record type")
    lines

let test_tee_sink () =
  let p1 = Profile.create () and p2 = Profile.create () in
  let sink =
    Sink.tee (Sink.of_probe (Profile.probe p1)) (Sink.of_probe (Profile.probe p2))
  in
  let r = (fib_outcome ~sink ~width:1 Scheme.Sempe).Run.timing in
  Alcotest.(check int) "left sees all uops" r.Timing.instructions (Profile.uops p1);
  Alcotest.(check int) "right sees all uops" r.Timing.instructions (Profile.uops p2)

(* ---- report JSON ---- *)

let test_report_json () =
  let r = (rsa_outcome Scheme.Sempe).Run.timing in
  let j = Report.to_json r in
  (* round-trip through the emitter: the document must stay parseable and
     carry the headline counters *)
  let j' = parse_json (Json.to_string j) in
  (match member_exn "report" "cycles" j' with
  | Json.Int c -> Alcotest.(check int) "cycles" r.Timing.cycles c
  | _ -> Alcotest.fail "cycles not an int");
  match member_exn "report" "stall_stack" j' with
  | Json.Obj kvs ->
    let total =
      List.fold_left
        (fun acc (_, v) -> match v with Json.Int i -> acc + i | _ -> acc)
        0 kvs
    in
    Alcotest.(check int) "json stall stack sums to cycles" r.Timing.cycles total
  | _ -> Alcotest.fail "stall_stack not an object"

(* ---- random programs: stall stack + cache counter self-consistency ---- *)

let prop_report_self_consistent =
  QCheck.Test.make ~name:"report stall stack and cache counters consistent"
    ~count:40 Test_random_progs.arbitrary_program (fun (prog, fill) ->
      let secrets = List.hd Test_random_progs.secret_assignments in
      List.for_all
        (fun scheme ->
          let built = Harness.build scheme prog in
          let outcome =
            Harness.run ~globals:secrets
              ~arrays:[ ("arr", Array.of_list fill) ]
              ~mem_words:(1 lsl 14) built
          in
          let r = outcome.Run.timing in
          let cache_ok accesses misses rate =
            misses >= 0 && misses <= accesses
            && rate = Stats.ratio ~num:misses ~den:accesses
            && rate >= 0.0 && rate <= 1.0
          in
          stall_sum r = r.Timing.cycles
          && Array.for_all (fun c -> c >= 0) r.Timing.stall_stack
          && cache_ok r.Timing.il1_accesses r.Timing.il1_misses
               r.Timing.il1_miss_rate
          && cache_ok r.Timing.dl1_accesses r.Timing.dl1_misses
               r.Timing.dl1_miss_rate
          && cache_ok r.Timing.l2_accesses r.Timing.l2_misses
               r.Timing.l2_miss_rate)
        [ Scheme.Baseline; Scheme.Sempe ])

(* ---- strict reader (untrusted input) ---- *)

let strict_fails ?max_depth ?max_string ?max_bytes ~needle src =
  match Json.of_string_strict ?max_depth ?max_string ?max_bytes src with
  | _ -> Alcotest.fail (Printf.sprintf "accepted %S" src)
  | exception Json.Parse_error { message; _ } ->
    let contains hay =
      let n = String.length needle in
      let rec go i =
        i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S error mentions %S (got %S)" src needle message)
      true (contains message)

let test_strict_depth () =
  let deep n = String.make n '[' ^ String.make n ']' in
  (* the default reader takes it; the strict one draws the line *)
  Alcotest.(check bool) "default reader accepts depth 80" true
    (Json.of_string (deep 80) <> Json.Null);
  strict_fails ~max_depth:64 ~needle:"nesting" (deep 80);
  strict_fails ~max_depth:8 ~needle:"nesting"
    "{\"a\":{\"b\":{\"c\":{\"d\":{\"e\":{\"f\":{\"g\":{\"h\":{\"i\":1}}}}}}}}}";
  (* at the limit is fine *)
  Alcotest.(check bool) "depth just under the cap parses" true
    (Json.of_string_strict ~max_depth:64 (deep 63) <> Json.Null)

let test_strict_string_and_bytes () =
  let long = "\"" ^ String.make 100 'x' ^ "\"" in
  strict_fails ~max_string:50 ~needle:"longer" long;
  Alcotest.(check bool) "under the string cap parses" true
    (Json.of_string_strict ~max_string:100 long = Json.Str (String.make 100 'x'));
  strict_fails ~max_bytes:10 ~needle:"limit" "[1,2,3,4,5,6,7,8]"

let test_strict_truncation () =
  (* Truncated frames must fail with a message that says so, at every
     prefix of a valid document. *)
  let doc = "{\"a\":[1,true,\"xy\"],\"b\":null}" in
  Alcotest.(check bool) "whole document parses" true
    (Json.of_string_strict doc <> Json.Null);
  for len = 1 to String.length doc - 1 do
    let prefix = String.sub doc 0 len in
    match Json.of_string_strict prefix with
    | _ -> Alcotest.fail (Printf.sprintf "accepted prefix %S" prefix)
    | exception Json.Parse_error _ -> ()
  done;
  strict_fails ~needle:"truncated" "{\"a\": [1,";
  strict_fails ~needle:"truncated" "\"unterminated"

let prop_strict_total =
  (* Malformed frames from an untrusted peer: the strict reader either
     parses or raises Parse_error — never loops, overflows the stack or
     leaks another exception. *)
  QCheck.Test.make ~name:"strict reader total on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_bound 200))
    (fun s ->
      match
        Json.of_string_strict ~max_depth:16 ~max_string:64 ~max_bytes:256 s
      with
      | _ -> true
      | exception Json.Parse_error _ -> true
      | exception _ -> false)

let test_strict_agrees_with_default () =
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "strict = default on %S" src)
        true
        (Json.of_string_strict src = Json.of_string src))
    [
      "null"; "true"; "[1,2.5,\"x\"]"; "{\"a\":{\"b\":[]},\"c\":\"\\u0041\"}";
      "-12"; "[[[[1]]]]";
    ]

let tests =
  [
    Alcotest.test_case "stall stack sums to cycles" `Quick test_stall_stack_sums;
    Alcotest.test_case "drain bucket charged only under SeMPE" `Quick
      test_stall_stack_drain_bucket;
    Alcotest.test_case "stall stack render" `Quick test_stall_stack_render;
    Alcotest.test_case "null sink identity" `Quick test_null_sink_identity;
    Alcotest.test_case "counters exact" `Quick test_counters_exact;
    Alcotest.test_case "counters eviction" `Quick test_counters_eviction;
    Alcotest.test_case "counters invalid" `Quick test_counters_invalid;
    qtest prop_counters_total_exact;
    Alcotest.test_case "profile cross-checks" `Quick test_profile_crosschecks;
    qtest prop_json_roundtrip;
    Alcotest.test_case "perfetto trace structure" `Quick
      test_perfetto_trace_structure;
    Alcotest.test_case "jsonl trace structure" `Quick test_jsonl_trace_structure;
    Alcotest.test_case "tee sink" `Quick test_tee_sink;
    Alcotest.test_case "report json" `Quick test_report_json;
    qtest prop_report_self_consistent;
    Alcotest.test_case "strict reader: nesting depth" `Quick test_strict_depth;
    Alcotest.test_case "strict reader: string and payload caps" `Quick
      test_strict_string_and_bytes;
    Alcotest.test_case "strict reader: truncation" `Quick test_strict_truncation;
    qtest prop_strict_total;
    Alcotest.test_case "strict reader agrees with default" `Quick
      test_strict_agrees_with_default;
  ]
