module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa
module Scheme = Sempe_core.Scheme
module Observable = Sempe_security.Observable
module Leakage = Sempe_security.Leakage
module Witness = Sempe_security.Witness
module Attribution = Sempe_security.Attribution
module Attacker = Sempe_security.Attacker
module Sink = Sempe_obs.Sink
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

type result = {
  scheme : Scheme.t;
  leaky : Leakage.channel list;
  timing_correlation : float;
}

let default_keys = [ 0x0000; 0xffff; 0xa5a5; 0x0f0f; 0x8001; 0x1234; 0x7fff ]

let view scheme ~key =
  let built = Harness.build scheme Rsa.program in
  let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
  let recorder = Observable.recorder () in
  let outcome =
    Harness.run ~globals ~arrays
      ~sink:(Sink.of_probe (Observable.probe recorder))
      built
  in
  Observable.view recorder outcome.Sempe_core.Run.timing

(* One job per scheme (each job sweeps all keys); the schemes' runs are
   independent, so they fan out through Batch. *)
let measure ?(keys = default_keys) () =
  Batch.map
    (fun scheme ->
      let views = List.map (fun key -> view scheme ~key) keys in
      let leaky = Leakage.leaky_channels views in
      (* The timing attacker reads the cycle counts of the runs above. *)
      let by_key = List.combine keys views in
      let run ~key = (List.assoc key by_key).Observable.cycles in
      let timing_correlation = Attacker.timing_key_correlation ~run ~keys in
      { scheme; leaky; timing_correlation })
    Scheme.all

(* ---- leakage attribution: where exactly do the runs diverge? ---- *)

type attribution_result = {
  a_scheme : Scheme.t;
  a_keys : int list;
  a_attribution : Attribution.t;
  a_witnesses : Witness.t list;
  a_program : Sempe_isa.Program.t;
}

let witness scheme ~key =
  let built = Harness.build scheme Rsa.program in
  let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
  let w = Witness.create () in
  let outcome =
    Harness.run ~globals ~arrays ~sink:(Sink.of_probe (Witness.probe w)) built
  in
  ignore outcome;
  (w, built.Harness.prog)

let measure_attribution ?(keys = default_keys) () =
  Batch.map
    (fun scheme ->
      let pairs = List.map (fun key -> witness scheme ~key) keys in
      let witnesses = List.map fst pairs in
      let program =
        match pairs with (_, p) :: _ -> p | [] -> assert false
      in
      {
        a_scheme = scheme;
        a_keys = keys;
        a_attribution = Attribution.attribute witnesses;
        a_witnesses = witnesses;
        a_program = program;
      })
    Scheme.all

let filter_attribution channels (a : Attribution.t) =
  match channels with
  | None -> a
  | Some chs ->
    {
      a with
      Attribution.by_channel =
        List.filter
          (fun (cr : Attribution.channel_report) ->
            List.mem cr.Attribution.cr_stream chs)
          a.Attribution.by_channel;
    }

let render_attribution ?channels results =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "== %s ==\n%s" (Scheme.name r.a_scheme)
           (Attribution.render ~program:r.a_program
              (filter_attribution channels r.a_attribution)))
       results)

let attribution_to_json ?channels results =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.Str (Scheme.name r.a_scheme));
             ( "keys",
               Json.List (List.map (fun k -> Json.Int k) r.a_keys) );
             ( "attribution",
               Attribution.to_json ~program:r.a_program
                 (filter_attribution channels r.a_attribution) );
           ])
       results)

let render results =
  let rows =
    List.map
      (fun r ->
        [
          Scheme.name r.scheme;
          (if r.leaky = [] then "none"
           else String.concat "," (List.map Leakage.channel_name r.leaky));
          Tablefmt.fixed 3 r.timing_correlation;
        ])
      results
  in
  "Security matrix — RSA modexp (Figure 1) across keys: channels whose \
   observables distinguish the secrets, and the Hamming-weight/time \
   correlation of the timing attack\n"
  ^ Tablefmt.render ~header:[ "scheme"; "leaky channels"; "timing corr." ] rows

let to_json results =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.Str (Scheme.name r.scheme));
             ( "leaky_channels",
               Json.List
                 (List.map
                    (fun ch -> Json.Str (Leakage.channel_name ch))
                    r.leaky) );
             ("timing_correlation", Json.Float r.timing_correlation);
           ])
       results)
