(** Shared plumbing for the paper's experiments. *)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp

val run_seconds : Engine.t -> float -> unit
(** Run the simulation up to an absolute time in seconds. *)

val seeds : int -> int list
(** [seeds n] is the deterministic seed list used for multi-run CDFs. *)

val sweep : ?pool:Smapp_par.Lanes.t -> ('a -> 'b) -> 'a list -> 'b list
(** Run one job per element, returning results in submission order.
    Without a pool this is [List.map] on the calling domain; with one,
    jobs are spread across its domains, each inside a fresh
    [Smapp_par.Ctx] capsule. Deterministic either way. *)

type pair = {
  engine : Engine.t;
  topo : Topology.parallel;
  client_ep : Endpoint.t;
  server_ep : Endpoint.t;
}

val make_pair :
  ?seed:int ->
  ?rates_bps:float list ->
  ?delays:Time.span list ->
  ?tcb_config:Smapp_tcp.Tcb.config ->
  unit ->
  pair
(** Multihomed client/server over two disjoint lossless paths, endpoints
    attached. *)

val path : pair -> int -> Topology.path
val client_addr : pair -> int -> Ip.t
val server_endpoint : pair -> int -> int -> Ip.endpoint
(** [server_endpoint pair path_index port]. *)

(** Timestamp MP_CAPABLE and MP_JOIN SYNs leaving a host, per §4.5. *)
module Syn_tap : sig
  type t

  val install : Host.t -> t

  val join_delays : t -> float list
  (** For every connection that sent both, the wire-level delay in seconds
      between its MP_CAPABLE SYN and its first MP_JOIN SYN. *)
end
