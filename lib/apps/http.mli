(** A minimal HTTP/1.0-style request/response workload: the §4.5 experiment
    runs "one thousand consecutive HTTP/1.0 GET queries for a 512 KB file"
    against a lighttpd server. One connection per request; the server sends
    the response and closes. *)

open Smapp_netsim
open Smapp_mptcp

val server : Endpoint.t -> port:int -> response_bytes:int -> unit
(** Listen and answer every request with [response_bytes], then close. *)

type client_stats = {
  mutable completed : int;
  mutable failed : int;
  mutable response_times : float list;  (** seconds, newest first *)
}

val client :
  Endpoint.t ->
  src:Ip.t ->
  dst:Ip.endpoint ->
  response_bytes:int ->
  requests:int ->
  on_done:(client_stats -> unit) ->
  unit ->
  client_stats
(** Issue [requests] GETs back to back (a new connection each, 1 ms after
    the previous one finishes); [on_done] fires after the last one. *)
