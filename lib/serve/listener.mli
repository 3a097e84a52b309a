(** The connection layer shared by the [serve] daemon and the [router]:
    addresses, binding and dialing, the accept loop, the frame loop and
    the JSON reply envelope.

    A listener accepts connections up to [max_connections] (a connection
    past the limit gets a [busy] error and is closed) and runs one
    handler thread per connection, dropped as it exits. Each connection
    speaks the framed JSON protocol of {!Frame}: a request is an object
    [{"id": .., "op": .., ...}] and its reply echoes ["id"] and carries
    either [{"ok": true, "cached": .., "result": ..}] or
    [{"ok": false, "error": {"code": .., "message": ..}}]. The listener
    answers [ping] itself, builds [stats] and runs [shutdown] through
    its {!handler}, and replies [bad-frame], [bad-json] and
    [bad-request] to malformed input. Every other request is the
    handler's to serve. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** [unix:PATH], [tcp:HOST:PORT], or a bare path (taken as a unix
    socket). *)

val addr_to_string : addr -> string

val dial : addr -> Unix.file_descr
(** Connect to a listening address.
    @raise Unix.Unix_error when the peer is unreachable, including when
    a TCP host name does not resolve. *)

(** What a request is answered with. *)
type reply =
  | Ok_result of Sempe_obs.Json.t * bool  (** result document, served from a cache *)
  | Err of string * string  (** error code, message *)
  | Relay of string  (** a complete reply produced elsewhere, sent verbatim *)

type handler = {
  serve : t0:float -> Api.request -> string -> reply;
      (** Answer a workload request; also given the request's arrival
          time and its original payload bytes. *)
  stats : unit -> Sempe_obs.Json.t;  (** the [stats] op's document *)
  drain : unit -> unit;  (** runs before the [shutdown] op replies *)
  account : t0:float -> reply -> unit;
      (** Called once per reply written, with its request's arrival
          time: the daemon records latency and reply counts, the router
          counts error replies. *)
}

type t

val create : max_connections:int -> max_frame:int -> addr -> t
(** Bind and listen. A crash-leftover unix socket file is replaced; a
    TCP listener gets [SO_REUSEADDR]. Nothing is accepted before
    {!serve}, but a client connecting after [create] returns is not
    refused.
    @raise Unix.Unix_error when the address cannot be bound. *)

val serve : t -> handler -> unit
(** Start the accept thread. *)

val addr : t -> addr

type counters = {
  requests : int;  (** payloads received *)
  in_flight : int;  (** payloads being answered now *)
  max_in_flight : int;
  connections : Sempe_obs.Json.t;
      (** [accepted], [rejected], [active] and [handler_threads] (the
          handlers retained, which is the number of open connections) *)
}

val counters : t -> counters

val request_stop : t -> unit
(** Ask the listener to stop; safe from signal handlers and handler
    threads. The shutdown op calls it after replying. *)

val stopping : t -> bool
(** {!request_stop} has been called. *)

val await_stop : t -> unit
(** Block until {!request_stop}. *)

val stop : ?grace_s:float -> t -> bool
(** Stop accepting and remove a unix socket file, let every request
    already being answered reply (waiting up to [grace_s], default
    600 s), then wake idle connections and join every handler. A
    connection reads no request after {!request_stop}: it closes once
    its current reply is written. [true] from the call that stopped the
    listener, [false] from every later one. *)
