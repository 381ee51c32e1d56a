(** A controller-side mirror of connection state, rebuilt purely from
    Netlink events — the bookkeeping every subflow controller needs.

    Controllers never see kernel objects; this view gives them tokens,
    subflow ids and four-tuples to name things in commands. *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg


open Smapp_netsim

type sub = { sv_id : int; sv_flow : Ip.flow }

type conn = {
  cv_token : int;
  cv_initial_flow : Ip.flow;
  mutable cv_established : bool;
  mutable cv_subs : sub list;
  mutable cv_remote_addrs : (int * Ip.endpoint) list;
}

type t

val create : Pm_lib.t -> ?extra_mask:int -> unit -> t
(** Subscribes to the connection-lifecycle events (plus [extra_mask]) and
    maintains the view. Live events and those a resync replays take one
    update path, which fires the hooks below; registering a hook sends no
    new [Subscribe]. *)

val pm : t -> Pm_lib.t

val conns : t -> conn list
(** Tracked connections in creation order. *)

val find : t -> int -> conn option
(** O(1) lookup by token. *)

val find_sub : conn -> int -> sub option

val on_conn_created : t -> (conn -> unit) -> unit
(** Fires when a connection first enters the view — on [Created] events and
    for connections discovered during a resync — before it is established.
    This is the hook per-connection controller factories instantiate from. *)

val on_conn_established : t -> (conn -> unit) -> unit
val on_conn_closed : t -> (conn -> unit) -> unit
val on_sub_established : t -> (conn -> sub -> unit) -> unit

val on_sub_closed : t -> (conn -> sub -> Smapp_tcp.Tcp_error.t option -> unit) -> unit
(** The closed subflow is already removed from the view when this fires. *)

val on_timeout :
  t -> (conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit) -> unit
(** Needs [Timeout] in [extra_mask]. *)

val on_event : t -> (Pm_msg.event -> unit) -> unit
(** Every subscribed event, after the typed hooks: for events the view does
    not model (local-address changes) or only records ([Add_addr]). *)
