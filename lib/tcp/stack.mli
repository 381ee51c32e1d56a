(** Per-host TCP stack: demultiplexes incoming segments to TCBs, accepts
    connections on listening ports, answers strays with RST, and translates
    ICMP unreachable errors into connection kills.

    One stack is attached to one {!Smapp_netsim.Host} and registers itself as
    the host's receive function. *)

open Smapp_sim
open Smapp_netsim

type t

val attach : Host.t -> t
(** Create the stack and register it with the host. *)

val host : t -> Host.t
val engine : t -> Engine.t

type accept = {
  acc_config : Tcb.config option;  (** [None] = stack default *)
  acc_synack_options : Segment.tcp_option list;
  acc_callbacks : Tcb.callbacks;
  acc_on_created : Tcb.t -> unit;
      (** runs right after the TCB exists (before any further segment) *)
}

val listen : t -> port:int -> (Segment.t -> accept option) -> unit
(** Register a listener; the handler inspects each SYN (including its
    options — MPTCP dispatches MP_CAPABLE vs MP_JOIN here) and either
    accepts or refuses ([None] sends RST). Replaces any previous listener
    on the port. *)

val unlisten : t -> port:int -> unit

val connect :
  t ->
  src:Ip.t ->
  dst:Ip.endpoint ->
  ?src_port:int ->
  ?config:Tcb.config ->
  ?backup:bool ->
  ?syn_options:Segment.tcp_option list ->
  Tcb.callbacks ->
  Tcb.t
(** Active open from local address [src]. Without [src_port] an unused
    ephemeral port is drawn from the engine's RNG (random source ports are
    what spreads ndiffports subflows across ECMP paths). Raises
    [Invalid_argument] if the four-tuple is already in use. *)

val find : t -> Ip.flow -> Tcb.t option
(** Look up by the local flow (local endpoint as source). *)

val default_config : t -> Tcb.config
