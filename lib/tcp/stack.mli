(** Per-host TCP stack: demultiplexes incoming segments to TCBs (a hash
    table on the four-tuple, which a closing TCB leaves through the stack's
    close hook), accepts connections on listening ports, answers strays
    with RST, and turns ICMP unreachable errors into connection kills.

    One stack is attached to one {!Smapp_netsim.Host} and registers itself as
    the host's receive function. *)

open Smapp_sim
open Smapp_netsim

type t

val attach : Host.t -> t
(** Create the stack and register it with the host. *)

val host : t -> Host.t
val engine : t -> Engine.t

val listen : t -> port:int -> (Segment.t -> unit) -> unit
(** Register a listener; the handler reads each SYN (including its
    options — MPTCP dispatches MP_CAPABLE vs MP_JOIN here) and accepts it
    by opening its TCB with {!accept}. A SYN the handler opened no TCB for
    is answered with RST. Replaces any previous listener on the port. *)

val accept :
  t ->
  Segment.t ->
  config:Tcb.config ->
  synack_options:Segment.tcp_option list ->
  Tcb.callbacks ->
  Tcb.t
(** [accept t syn ...], from a listener's handler: open the passive TCB
    for [syn], send its SYN+ACK and add it to the table. *)

val connect :
  t ->
  src:Ip.t ->
  dst:Ip.endpoint ->
  ?src_port:int ->
  config:Tcb.config ->
  backup:bool ->
  syn_options:Segment.tcp_option list ->
  Tcb.callbacks ->
  Tcb.t
(** Active open from local address [src]. Without [src_port] an unused
    ephemeral port is drawn from the engine's RNG (random source ports are
    what spreads ndiffports subflows across ECMP paths). Raises
    [Invalid_argument] if the four-tuple is already in use. *)

val find : t -> Ip.flow -> Tcb.t option
(** Look up by the local flow (local endpoint as source). *)
