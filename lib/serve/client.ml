module Json = Sempe_obs.Json

type conn = { fd : Unix.file_descr; mutable next_id : int; mutable open_ : bool }

type error = { code : string; message : string }

let connect address = { fd = Listener.dial address; next_id = 1; open_ = true }

let close conn =
  if conn.open_ then begin
    conn.open_ <- false;
    try Unix.close conn.fd with _ -> ()
  end

(* One request, one reply. Replies are decoded strictly: a daemon bug
   that emits a malformed document surfaces as a ["protocol"] error, not
   an exception in the caller. *)
let roundtrip conn fields =
  if not conn.open_ then Error { code = "closed"; message = "connection closed" }
  else begin
    let id = conn.next_id in
    conn.next_id <- id + 1;
    let doc = Json.Obj (("id", Json.Int id) :: fields) in
    match
      Frame.write conn.fd (Json.to_string doc);
      Frame.read conn.fd
    with
    | exception Frame.Frame_error msg -> Error { code = "protocol"; message = msg }
    | exception Unix.Unix_error (e, _, _) ->
      Error { code = "closed"; message = Unix.error_message e }
    | None -> Error { code = "closed"; message = "daemon closed the connection" }
    | Some payload -> (
      match Json.of_string_strict payload with
      | exception Json.Parse_error { pos; message } ->
        Error
          { code = "protocol";
            message = Printf.sprintf "bad reply at byte %d: %s" pos message }
      | Json.Obj reply -> (
        (match List.assoc_opt "id" reply with
         | Some (Json.Int rid) when rid <> id ->
           Error
             { code = "protocol";
               message = Printf.sprintf "reply id %d for request %d" rid id }
         | _ -> (
           match List.assoc_opt "ok" reply with
           | Some (Json.Bool true) -> (
             match List.assoc_opt "result" reply with
             | Some result ->
               let cached =
                 match List.assoc_opt "cached" reply with
                 | Some (Json.Bool b) -> b
                 | _ -> false
               in
               Ok (result, cached)
             | None ->
               Error { code = "protocol"; message = "ok reply without result" })
           | Some (Json.Bool false) -> (
             match List.assoc_opt "error" reply with
             | Some (Json.Obj err) ->
               let str name fallback =
                 match List.assoc_opt name err with
                 | Some (Json.Str s) -> s
                 | _ -> fallback
               in
               Error
                 { code = str "code" "error"; message = str "message" "" }
             | _ ->
               Error { code = "protocol"; message = "error reply without error" })
           | _ -> Error { code = "protocol"; message = "reply without ok field" })))
      | _ -> Error { code = "protocol"; message = "reply is not a JSON object" })
  end

let call_cached conn request =
  roundtrip conn
    (match Api.request_to_json request with
     | Json.Obj fields -> fields
     | other -> [ ("request", other) ])

let call conn request = Result.map fst (call_cached conn request)

let op conn name = roundtrip conn [ ("op", Json.Str name) ]

let ping conn =
  match op conn "ping" with Ok _ -> Ok () | Error e -> Error e

let stats conn = Result.map fst (op conn "stats")

let shutdown conn =
  match op conn "shutdown" with Ok _ -> Ok () | Error e -> Error e
