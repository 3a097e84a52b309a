module Json = Sempe_obs.Json
module Pool = Sempe_util.Pool

(* ---- addresses ---- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let prefixed p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "unix:" with
  | Some path -> Ok (Unix_sock path)
  | None -> (
    match prefixed "tcp:" with
    | Some rest -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
      | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
    | None ->
      if s = "" then Error "empty address" else Ok (Unix_sock s))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* A peer hanging up mid-reply must surface as EPIPE, not kill the
   process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

(* Every address failure is a [Unix_error], so callers that map those to
   error replies also cover a host name that does not resolve. *)
let sockaddr = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] | (exception Not_found) ->
          raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host))
        | addrs -> addrs.(0))
    in
    (Unix.PF_INET, Unix.ADDR_INET (inet, port))

let dial address =
  ignore_sigpipe ();
  let domain, sa = sockaddr address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

(* ---- replies ---- *)

type reply =
  | Ok_result of Json.t * bool
  | Err of string * string
  | Relay of string

type handler = {
  serve : t0:float -> Api.request -> string -> reply;
  stats : unit -> Json.t;
  drain : unit -> unit;
  account : t0:float -> reply -> unit;
}

let encode ~id reply =
  let doc fields =
    let id_field = match id with Some i -> [ ("id", Json.Int i) ] | None -> [] in
    Json.to_string (Json.Obj (id_field @ fields))
  in
  match reply with
  | Relay bytes -> bytes
  | Ok_result (json, cached) ->
    doc [ ("ok", Json.Bool true); ("cached", Json.Bool cached); ("result", json) ]
  | Err (code, message) ->
    doc
      [
        ("ok", Json.Bool false);
        ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ]);
      ]

let busy_doc = encode ~id:None (Err ("busy", "connection limit reached"))

(* ---- the listener ---- *)

type counters = {
  requests : int;
  in_flight : int;
  max_in_flight : int;
  connections : Json.t;
}

type t = {
  address : addr;
  listen_fd : Unix.file_descr;
  max_connections : int;
  max_frame : int;
  m : Mutex.t;
  mutable requests : int;
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable active : int;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  (* open connections and their handlers: each handler removes its own
     entry as it exits, so the table never outgrows the open set *)
  mutable next_conn : int;
  stop_flag : bool Atomic.t;
  stop_done : bool Atomic.t;
  mutable accept_thread : Thread.t option;
}

let addr t = t.address

let request_stop t = Atomic.set t.stop_flag true

let stopping t = Atomic.get t.stop_flag

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let counters (t : t) : counters =
  locked t (fun () ->
      {
        requests = t.requests;
        in_flight = t.in_flight;
        max_in_flight = t.max_in_flight;
        connections =
          Json.Obj
            [
              ("accepted", Json.Int t.accepted);
              ("rejected", Json.Int t.rejected);
              ("active", Json.Int t.active);
              ("handler_threads", Json.Int (Hashtbl.length t.conns));
            ];
      })

(* ---- the wire loop ---- *)

let write_reply h fd ~id ~t0 reply =
  Frame.write fd (encode ~id reply);
  h.account ~t0 reply

let handle_payload t h fd payload =
  let t0 = Pool.now_s () in
  locked t (fun () ->
      t.requests <- t.requests + 1;
      t.in_flight <- t.in_flight + 1;
      if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight);
  Fun.protect
    ~finally:(fun () -> locked t (fun () -> t.in_flight <- t.in_flight - 1))
    (fun () ->
      let answer = write_reply h fd ~t0 in
      match Json.of_string_strict ~max_bytes:t.max_frame payload with
      | exception Json.Parse_error { pos; message } ->
        answer ~id:None (Err ("bad-json", Printf.sprintf "at byte %d: %s" pos message))
      | Json.Obj fields as json -> (
        let id =
          match List.assoc_opt "id" fields with
          | Some (Json.Int i) -> Some i
          | _ -> None
        in
        match List.assoc_opt "op" fields with
        | Some (Json.Str "ping") -> answer ~id (Ok_result (Json.Str "pong", false))
        | Some (Json.Str "stats") -> answer ~id (Ok_result (h.stats (), false))
        | Some (Json.Str "shutdown") ->
          h.drain ();
          answer ~id (Ok_result (Json.Bool true, false));
          request_stop t
        | _ -> (
          match Api.request_of_json json with
          | Error msg -> answer ~id (Err ("bad-request", msg))
          | Ok req -> answer ~id (h.serve ~t0 req payload)))
      | _ -> answer ~id:None (Err ("bad-request", "request must be a JSON object")))

let conn_loop t h fd =
  let rec go () =
    match Frame.read ~max_len:t.max_frame fd with
    | None -> ()
    | Some payload ->
      handle_payload t h fd payload;
      (* Once stopping, answer nothing new: the drain in [stop] covers
         only requests already being answered. *)
      if not (stopping t) then go ()
    | exception Frame.Frame_error msg ->
      (* Tell the peer why before hanging up; a half-read stream cannot
         be resynchronized. *)
      (try write_reply h fd ~id:None ~t0:(Pool.now_s ()) (Err ("bad-frame", msg))
       with _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  try go () with _ -> ()

let handler t h cid fd =
  Fun.protect
    ~finally:(fun () ->
      (* Closed under the lock [stop] wakes connections under, so it
         never shuts down a descriptor number reused since. *)
      locked t (fun () ->
          (try Unix.close fd with _ -> ());
          t.active <- t.active - 1;
          Hashtbl.remove t.conns cid))
    (fun () -> conn_loop t h fd)

let accept_loop t h =
  while not (stopping t) do
    let ready =
      try
        match Unix.select [ t.listen_fd ] [] [] 0.2 with
        | [], _, _ -> false
        | _ -> true
      with Unix.Unix_error _ -> false
    in
    if ready && not (stopping t) then begin
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        let admitted =
          locked t (fun () ->
              if t.active >= t.max_connections then begin
                t.rejected <- t.rejected + 1;
                false
              end
              else begin
                t.accepted <- t.accepted + 1;
                t.active <- t.active + 1;
                true
              end)
        in
        if not admitted then begin
          (try Frame.write fd busy_doc with _ -> ());
          try Unix.close fd with _ -> ()
        end
        else
          (* Registered under the lock the handler takes to deregister, so
             even a handler that exits at once finds its entry. *)
          locked t (fun () ->
              let cid = t.next_conn in
              t.next_conn <- cid + 1;
              let th = Thread.create (fun () -> handler t h cid fd) () in
              Hashtbl.replace t.conns cid (fd, th))
    end
  done

(* ---- lifecycle ---- *)

let create ~max_connections ~max_frame address =
  ignore_sigpipe ();
  let domain, sa = sockaddr address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     (match address with
      | Unix_sock path -> if Sys.file_exists path then Sys.remove path
      | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd sa;
     Unix.listen fd (max 16 max_connections)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  {
    address;
    listen_fd = fd;
    max_connections;
    max_frame;
    m = Mutex.create ();
    requests = 0;
    in_flight = 0;
    max_in_flight = 0;
    accepted = 0;
    rejected = 0;
    active = 0;
    conns = Hashtbl.create 16;
    next_conn = 0;
    stop_flag = Atomic.make false;
    stop_done = Atomic.make false;
    accept_thread = None;
  }

let serve t h = t.accept_thread <- Some (Thread.create (accept_loop t) h)

let await_stop t =
  while not (stopping t) do
    Thread.delay 0.05
  done

let stop ?(grace_s = 600.) t =
  if Atomic.exchange t.stop_done true then false
  else begin
    request_stop t;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (match t.address with
     | Unix_sock path -> ( try Sys.remove path with _ -> ())
     | Tcp _ -> ());
    (* Drain: every request already being answered finishes and
       replies before its connection is woken. *)
    let deadline = Pool.now_s () +. grace_s in
    while locked t (fun () -> t.in_flight) > 0 && Pool.now_s () < deadline do
      Thread.delay 0.005
    done;
    (* Wake connections idle in [Frame.read] so their handlers exit. *)
    let handlers =
      locked t (fun () ->
          Hashtbl.fold
            (fun _ (fd, th) acc ->
              (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
              th :: acc)
            t.conns [])
    in
    (* Handlers that already deregistered have nothing left to do. *)
    List.iter Thread.join handlers;
    true
  end
