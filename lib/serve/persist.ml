(* Versioned on-disk store for a shard's response cache.

   The store directory holds one file, [responses.v1.jsonl]: one header
   line naming the store kind and version, then one JSON object per
   cached response: {"key":[..],"cost_s":..,"response":..}, in recency
   order (newest first, the order [Cache.to_list] dumps). The response
   cache is JSON end to end, so its persistent form is too: the file is
   greppable, survives binary changes by construction, and is read back
   with the strict JSON parser, never with [Marshal].

   The file is written atomically (temp file + rename) so a crash
   mid-flush leaves the previous store intact. Loading is forgiving: a
   missing directory or file is an empty store; an unreadable file, a
   wrong version or a corrupt line is skipped with a warning rather than
   failing the daemon's start — the store is a warm-start optimization,
   never a correctness dependency. *)

module Json = Sempe_obs.Json

let responses_header = "{\"store\":\"sempe-serve-responses\",\"version\":1}"

let responses_file dir = Filename.concat dir "responses.v1.jsonl"

type loaded = {
  responses : (int list * Json.t * float) list;
  warnings : string list;
}

let empty = { responses = []; warnings = [] }

(* ---- encoding helpers ---- *)

let key_to_json key = Json.List (List.map (fun d -> Json.Int d) key)

let key_of_json = function
  | Json.List ds ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Json.Int d :: rest -> go (d :: acc) rest
      | _ -> None
    in
    go [] ds
  | _ -> None

let response_line (key, response, cost) =
  Json.to_string
    (Json.Obj
       [
         ("key", key_to_json key);
         ("cost_s", Json.Float cost);
         ("response", response);
       ])

let response_of_line line =
  match Json.of_string_strict line with
  | exception Json.Parse_error { pos; message } ->
    Error (Printf.sprintf "bad JSON at byte %d: %s" pos message)
  | doc -> (
    match
      ( Option.bind (Json.member "key" doc) key_of_json,
        Json.member "response" doc,
        Json.member "cost_s" doc )
    with
    | Some key, Some response, cost ->
      let cost =
        match cost with
        | Some (Json.Float f) when Float.is_finite f && f >= 0. -> f
        | Some (Json.Int i) when i >= 0 -> float_of_int i
        | _ -> 0.
      in
      Ok (key, response, cost)
    | _ -> Error "entry without a digest key and a response")

(* ---- atomic file replacement ---- *)

let write_atomically path emit =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try emit oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Persist: %S is not a directory" dir)

(* ---- save ---- *)

let save ~dir ~responses =
  ensure_dir dir;
  write_atomically (responses_file dir) (fun oc ->
      output_string oc responses_header;
      output_char oc '\n';
      List.iter
        (fun entry ->
          output_string oc (response_line entry);
          output_char oc '\n')
        responses)

(* ---- load ---- *)

let load ~dir =
  let path = responses_file dir in
  if not (Sys.file_exists path) then empty
  else begin
    let warnings = ref [] in
    let warn fmt =
      Printf.ksprintf (fun msg -> warnings := (path ^ ": " ^ msg) :: !warnings) fmt
    in
    let responses =
      match
        String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
      with
      | exception Sys_error msg ->
        warn "unreadable (%s), store skipped" msg;
        []
      | [] -> []
      | header :: lines ->
        if String.trim header <> responses_header then begin
          warn "unknown header %S, store skipped" (String.trim header);
          []
        end
        else
          List.filter_map
            (fun line ->
              if String.trim line = "" then None
              else
                match response_of_line line with
                | Ok entry -> Some entry
                | Error msg ->
                  warn "entry skipped (%s)" msg;
                  None)
            lines
    in
    { responses; warnings = List.rev !warnings }
  end
