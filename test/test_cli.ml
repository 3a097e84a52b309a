(* Table-driven coverage of the CLI surface: exec the real executables,
   check exit codes and the structure of --json output, so flag
   regressions are caught without running the full examples. *)

module Json = Sempe_obs.Json

(* Resolve the executables relative to the test binary, so the table
   works under both `dune runtest` and `dune exec` from any directory. *)
let build_dir = Filename.dirname (Filename.dirname Sys.executable_name)
let sim_exe = Filename.concat build_dir "bin/sempe_sim.exe"
let bench_exe = Filename.concat build_dir "bench/main.exe"

(* [run exe args] execs and returns (exit code, stdout). *)
let run exe args =
  let out = Filename.temp_file "sempe-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        String.concat " "
          (List.map Filename.quote (exe :: args))
        ^ " > " ^ Filename.quote out ^ " 2> /dev/null"
      in
      let code = Sys.command cmd in
      let text = In_channel.with_open_text out In_channel.input_all in
      (code, text))

(* A path inside a directory that does not exist. *)
let missing_dir_file name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sempe-missing-%d/%s" (Unix.getpid ()) name)

type expect =
  | Non_empty  (** human-readable output: anything on stdout *)
  | Json_with of string list  (** a JSON document carrying these members *)
  | Ignore_output

let sim_table =
  [
    ("config prints the machine model", [ "config" ], 0, Non_empty);
    ( "microbench --json",
      [ "microbench"; "-w"; "2"; "-i"; "2"; "--json" ],
      0,
      Json_with [ "workload"; "kernel"; "checksum"; "report" ] );
    ( "microbench sampled --json",
      [ "microbench"; "-w"; "2"; "-i"; "2"; "--sample"; "--json" ],
      0,
      Json_with [ "workload"; "sampling" ] );
    ( "djpeg --json",
      [ "djpeg"; "-b"; "2"; "--json" ],
      0,
      Json_with [ "workload"; "format"; "checksum"; "report" ] );
    ( "sample --compare-full --json",
      [ "sample"; "fibonacci"; "--iters"; "20"; "--coverage"; "0.25"; "-j";
        "1"; "--compare-full"; "--json" ],
      0,
      Json_with [ "in_bound" ] );
    ( "fuzz --json",
      [ "fuzz"; "--seed"; "7"; "--count"; "8"; "--no-corpus"; "--json" ],
      0,
      Json_with [ "executed"; "generated"; "mutants"; "features"; "failures" ]
    );
    ( "fuzz rejects unknown oracles",
      [ "fuzz"; "--count"; "1"; "--no-corpus"; "--oracle"; "bogus" ],
      124,
      Ignore_output );
    ( "fuzz rejects unknown faults",
      [ "fuzz"; "--count"; "1"; "--no-corpus"; "--fault"; "bogus" ],
      124,
      Ignore_output );
    ("unknown subcommand fails", [ "frobnicate" ], 124, Ignore_output);
    ("bad flag value fails", [ "fuzz"; "--count"; "lots" ], 124, Ignore_output);
    ( "leakage rejects unknown channels",
      [ "leakage"; "--attribute"; "--channel"; "bogus" ],
      124,
      Ignore_output );
    ( "leakage --channel requires --attribute",
      [ "leakage"; "--channel"; "timing" ],
      124,
      Ignore_output );
    (* A value out of range fails the range check the daemon applies to
       the same request: a usage error, exit 124, not an uncaught
       assertion (125) or a silent run (0). *)
    ("rsa rejects a key past 16 bits", [ "rsa"; "--key"; "0x10000" ], 124,
     Ignore_output);
    ( "microbench rejects leaf 0",
      [ "microbench"; "-w"; "2"; "--leaf"; "0" ],
      124,
      Ignore_output );
    ( "microbench rejects a leaf past W+1",
      [ "microbench"; "-w"; "2"; "--leaf"; "9" ],
      124,
      Ignore_output );
    ("microbench rejects width 0", [ "microbench"; "-w"; "0" ], 124,
     Ignore_output);
    ("microbench rejects iters 0", [ "microbench"; "-i"; "0" ], 124,
     Ignore_output);
    ("djpeg rejects zero blocks", [ "djpeg"; "-b"; "0" ], 124, Ignore_output);
    ("djpeg rejects blocks past the image", [ "djpeg"; "-b"; "65" ], 124,
     Ignore_output);
    ("djpeg rejects an unknown format", [ "djpeg"; "--format"; "bogus" ], 124,
     Ignore_output);
    ( "rsa --sample rejects zero coverage",
      [ "rsa"; "--sample"; "--coverage"; "0" ],
      124,
      Ignore_output );
    ("profile rejects --top 0", [ "profile"; "rsa"; "--top"; "0" ], 124,
     Ignore_output);
    ( "trace rejects width 0",
      [ "trace"; "fibonacci"; "-w"; "0"; "-o"; "/dev/null" ],
      124,
      Ignore_output );
    (* An unknown workload name exits 1 in every subcommand that takes
       one. *)
    ("disasm rejects an unknown workload", [ "disasm"; "bogus" ], 1,
     Ignore_output);
    (* The serving surface follows the same exit-code convention: bad
       addresses, unknown ops and unknown flags all exit 124 before any
       connection is attempted. *)
    ( "serve rejects a bad address",
      [ "serve"; "--listen"; "tcp:missing-port" ],
      124,
      Ignore_output );
    ( "serve rejects an unknown flag",
      [ "serve"; "--frobnicate" ],
      124,
      Ignore_output );
    ( "client rejects an unknown op",
      [ "client"; "frobnicate" ],
      124,
      Ignore_output );
    ( "client rejects a bad address",
      [ "client"; "ping"; "-c"; "tcp:missing-port" ],
      124,
      Ignore_output );
    (* An address that parses but cannot be reached or bound is a
       runtime failure: exit 1, like a refused connection. *)
    ( "client on an unresolvable host fails",
      [ "client"; "ping"; "-c"; "tcp::1" ],
      1,
      Ignore_output );
    ( "serve on an unbindable address fails",
      [ "serve"; "--listen"; missing_dir_file "x.sock" ],
      1,
      Ignore_output );
    (* So is an output path that cannot be created. *)
    ( "trace to an unwritable path fails",
      [ "trace"; "rsa"; "-o"; missing_dir_file "x.json" ],
      1,
      Ignore_output );
    ( "leakage --trace-out to an unwritable path fails",
      [ "leakage"; "--attribute"; "--trace-out"; missing_dir_file "traces" ],
      1,
      Ignore_output );
    ( "loadgen rejects an unknown mix element",
      [ "loadgen"; "--mix"; "bogus" ],
      124,
      Ignore_output );
    ( "loadgen rejects a bad flag value",
      [ "loadgen"; "--clients"; "many" ],
      124,
      Ignore_output );
  ]

let check_expect name expect stdout =
  match expect with
  | Ignore_output -> ()
  | Non_empty ->
    Alcotest.(check bool) (name ^ ": stdout non-empty") true (stdout <> "")
  | Json_with members -> (
    match Json.of_string (String.trim stdout) with
    | exception Json.Parse_error { pos; message } ->
      Alcotest.failf "%s: stdout is not JSON (at %d: %s)" name pos message
    | doc ->
      List.iter
        (fun m ->
          match Json.member m doc with
          | Some _ -> ()
          | None -> Alcotest.failf "%s: JSON lacks member %S" name m)
        members)

let sim_case (name, args, expected_code, expect) =
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout = run sim_exe args in
      Alcotest.(check int) (name ^ ": exit code") expected_code code;
      check_expect name expect stdout)

(* ---- asm-run on programs that do not assemble or cannot run: a
   message naming the file, and exit 1 ---- *)

let asm_case name src =
  Alcotest.test_case name `Quick (fun () ->
      let file = Filename.temp_file "sempe-asm" ".s" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Out_channel.with_open_text file (fun oc -> output_string oc src);
          let code, stdout = run sim_exe [ "asm-run"; file ] in
          Alcotest.(check int) (name ^ ": exit code") 1 code;
          Alcotest.(check string) (name ^ ": no report") "" stdout))

let asm_table =
  [
    asm_case "asm-run rejects an unknown mnemonic" "bogus r1\nhalt\n";
    (* a secure branch back to its own body opens a new jbTable entry on
       every iteration, until the table overflows *)
    asm_case "asm-run reports a jbTable overflow"
      "li r10, 0\nli r11, 50\nloop: addi r10, r10, 1\n\
       sble r10, r11, loop\neosjmp\nhalt\n";
  ]

(* ---- the bench perf gate, against handcrafted record files ---- *)

let perf_record ?(instructions = 200_000) workload mode rate =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("mode", Json.Str mode);
      ("instructions", Json.Int instructions);
      ("cycles", Json.Int 1000);
      ("wall_s", Json.Float 0.01);
      ("minstr_per_s", Json.Float rate);
      ("speedup", Json.Float 1.0);
    ]

let write_records records =
  let file = Filename.temp_file "sempe-gate" ".json" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (Json.List records)));
  file

let gate_case name ~baseline ~current ~args ~expected_code =
  Alcotest.test_case name `Quick (fun () ->
      let bfile = write_records baseline in
      let cfile = write_records current in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove bfile;
          Sys.remove cfile)
        (fun () ->
          let code, _ =
            run bench_exe
              ([ "gate"; "--baseline"; bfile; "--current"; cfile ] @ args)
          in
          Alcotest.(check int) (name ^ ": exit code") expected_code code))

let base_records =
  [ perf_record "fib" "full" 10.0; perf_record "fib" "sampled" 20.0 ]

let gate_table =
  [
    gate_case "gate passes on identical records" ~baseline:base_records
      ~current:base_records ~args:[] ~expected_code:0;
    gate_case "gate fails when tolerance < slowdown" ~baseline:base_records
      ~current:[ perf_record "fib" "full" 5.0; perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--tolerance"; "30" ] ~expected_code:1;
    gate_case "gate tolerates a slowdown within tolerance"
      ~baseline:base_records
      ~current:[ perf_record "fib" "full" 5.0; perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--tolerance"; "60" ] ~expected_code:0;
    gate_case "gate fails on a missing record" ~baseline:base_records
      ~current:[ perf_record "fib" "full" 10.0 ]
      ~args:[] ~expected_code:1;
    gate_case "gate ignores rate improvements" ~baseline:base_records
      ~current:
        [ perf_record "fib" "full" 100.0; perf_record "fib" "sampled" 200.0 ]
      ~args:[ "--tolerance"; "0" ] ~expected_code:0;
    (* a sampled record slower than its full sibling fails regardless of
       the baseline or tolerance: sampling that costs wall clock is a
       bug, the estimator should have fallen back to the exact path *)
    gate_case "gate fails a sampled record slower than full"
      ~baseline:base_records
      ~current:
        [ perf_record "fib" "full" 100.0; perf_record "fib" "sampled" 99.0 ]
      ~args:[ "--tolerance"; "1000" ] ~expected_code:1;
    (* measured-work floor: a current record over too few instructions
       fails the gate even when its rate looks fine *)
    gate_case "gate fails below the min-work floor" ~baseline:base_records
      ~current:
        [ perf_record ~instructions:1000 "fib" "full" 10.0;
          perf_record "fib" "sampled" 20.0 ]
      ~args:[] ~expected_code:1;
    gate_case "gate min-work floor is configurable" ~baseline:base_records
      ~current:
        [ perf_record ~instructions:1000 "fib" "full" 10.0;
          perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--min-work"; "500" ] ~expected_code:0;
    (* a misspelled flag is an error, not a silent default: this one
       would otherwise gate at the default tolerance and pass *)
    gate_case "gate rejects an unknown flag" ~baseline:base_records
      ~current:[ perf_record "fib" "full" 5.0; perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--tolernace"; "60" ] ~expected_code:124;
  ]

let gate_malformed =
  Alcotest.test_case "gate rejects malformed baselines" `Quick (fun () ->
      let bfile = Filename.temp_file "sempe-gate" ".json" in
      Out_channel.with_open_text bfile (fun oc ->
          output_string oc "{\"not\":\"a list\"}");
      Fun.protect
        ~finally:(fun () -> Sys.remove bfile)
        (fun () ->
          let code, _ = run bench_exe [ "gate"; "--baseline"; bfile ] in
          Alcotest.(check int) "exit code" 2 code))

(* ---- end-to-end Perfetto sink contract: `trace` writes a complete,
   parseable Chrome trace-event document (footer written on close) ---- *)

let trace_perfetto =
  Alcotest.test_case "trace writes a parseable Perfetto document" `Quick
    (fun () ->
      let out = Filename.temp_file "sempe-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code, _ =
            run sim_exe
              [ "trace"; "fibonacci"; "-w"; "2"; "-i"; "1"; "-o"; out ]
          in
          Alcotest.(check int) "trace exit code" 0 code;
          let text = In_channel.with_open_text out In_channel.input_all in
          match Json.of_string (String.trim text) with
          | exception Json.Parse_error { pos; message } ->
            Alcotest.failf "trace output is not JSON (at %d: %s)" pos message
          | doc -> (
            Alcotest.(check bool) "displayTimeUnit present" true
              (Json.member "displayTimeUnit" doc <> None);
            match Json.member "traceEvents" doc with
            | Some (Json.List (_ :: _)) -> ()
            | Some _ -> Alcotest.fail "traceEvents is not a non-empty list"
            | None -> Alcotest.fail "traceEvents member missing")))

(* ---- `leakage --attribute --json`: the paper's claim as JSON — the
   SeMPE scheme reports zero divergent events on every channel ---- *)

let leakage_attribute_json =
  Alcotest.test_case "leakage --attribute --json, sempe clean" `Quick
    (fun () ->
      let code, stdout =
        run sim_exe [ "leakage"; "--attribute"; "--json"; "-j"; "2" ]
      in
      Alcotest.(check int) "exit code" 0 code;
      match Json.of_string (String.trim stdout) with
      | exception Json.Parse_error { pos; message } ->
        Alcotest.failf "not JSON (at %d: %s)" pos message
      | Json.List entries ->
        Alcotest.(check bool) "one entry per scheme" true
          (List.length entries >= 2);
        let find_scheme name =
          List.find_opt
            (fun e -> Json.member "scheme" e = Some (Json.Str name))
            entries
        in
        let clean_of e =
          match Json.member "attribution" e with
          | Some attr -> (
            match (Json.member "clean" attr, Json.member "total_divergent" attr) with
            | Some (Json.Bool c), Some (Json.Int n) -> (c, n)
            | _ -> Alcotest.fail "attribution lacks clean/total_divergent")
          | None -> Alcotest.fail "entry lacks attribution"
        in
        (match find_scheme "sempe" with
         | None -> Alcotest.fail "no sempe entry"
         | Some e ->
           let clean, total = clean_of e in
           Alcotest.(check bool) "sempe clean" true clean;
           Alcotest.(check int) "sempe zero divergent events" 0 total);
        (match find_scheme "baseline" with
         | None -> Alcotest.fail "no baseline entry"
         | Some e ->
           let clean, total = clean_of e in
           Alcotest.(check bool) "baseline attributed" true
             ((not clean) && total > 0))
      | _ -> Alcotest.fail "expected a JSON list of scheme entries")

let tests =
  List.map sim_case sim_table
  @ asm_table
  @ gate_table
  @ [ gate_malformed; trace_perfetto; leakage_attribute_json ]
