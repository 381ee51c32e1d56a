(** A host's Multipath TCP endpoint: the socket layer applications use.

    Wraps the host's TCP {!Stack}, dispatches MP_CAPABLE SYNs to new
    connections and MP_JOIN SYNs (by token) to existing ones, and keeps the
    per-host connection registry that the netlink path manager enumerates. *)

open Smapp_sim
open Smapp_netsim
open Smapp_tcp

type t

val of_host : ?cc:Cc.algo -> ?tcb_config:Tcb.config -> Host.t -> t
(** Attach a fresh TCP stack to the host and an endpoint to the stack.
    Defaults: coupled {!Cc.Lia} congestion control (the Linux MPTCP
    default) and the lowest-RTT scheduler. [tcb_config]'s [cc_algo] is
    overridden by [cc]. *)

val stack : t -> Stack.t
val host : t -> Host.t
val engine : t -> Engine.t

val connect : t -> src:Ip.t -> dst:Ip.endpoint -> unit -> Connection.t
(** Active open: sends the MP_CAPABLE SYN immediately; subscribe to the
    returned connection for [Established]. *)

val listen : t -> port:int -> (Connection.t -> unit) -> unit
(** The callback runs when a new connection completes its handshake. Bytes
    the connection delivered before then go to the first receiver the
    callback installs ({!Connection.set_receive}).
    Additional subflows joining existing connections are matched by token
    and never surface here. *)

val connections : t -> Connection.t list
(** Live (not yet closed) connections, any role, in registration order. *)

val find_by_token : t -> int -> Connection.t
(** The live connection whose local token is given; raises [Not_found]. *)

val subscribe_new_connections : t -> (Connection.t -> unit) -> unit
(** Observe every connection the endpoint creates (client or server side),
    at creation time (before establishment) — this is how the netlink path
    manager attaches to everything. *)
