(** A controller-side mirror of connection state, rebuilt purely from
    Netlink events — the bookkeeping every subflow controller needs.

    Controllers never see kernel objects; this view gives them tokens,
    subflow ids and four-tuples to name things in commands. Each connection
    carries the handlers its controller gave it (§3: a controller is the
    set of callbacks the library calls for the events it subscribed to). *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg


open Smapp_netsim

type sub = { sv_id : int; sv_flow : Ip.flow }

type handlers = {
  on_established : conn -> unit;
  on_sub_established : conn -> sub -> unit;
  on_sub_closed : conn -> sub -> Smapp_tcp.Tcp_error.t option -> unit;
      (** The closed subflow is already removed from the view. *)
  on_timeout : conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit;
      (** Needs [Timeout] in the view's [extra_mask]. *)
  on_closed : conn -> unit;  (** The last call a connection's handlers get. *)
}
(** What one connection's controller reacts to. The connection is passed on
    every call, so one record may serve every connection. *)

and conn = {
  cv_token : int;
  cv_initial_flow : Ip.flow;
  mutable cv_established : bool;
  mutable cv_subs : sub list;
  mutable cv_remote_addrs : (int * Ip.endpoint) list;
  mutable cv_handlers : handlers;  (** set by the view's [control] function *)
}

val null_handlers : handlers
(** Ignores everything; override the fields you need. *)

type t

val create : Pm_lib.t -> ?extra_mask:int -> unit -> t
(** Subscribes to the connection-lifecycle events (plus [extra_mask]) and
    maintains the view. Live events and those a resync replays take one
    update path, which calls the connection's handlers. *)

val control : t -> (conn -> handlers) -> unit
(** [control t make]: [make] gives each connection its handlers, once, when
    it first enters the view (its [Created] event, or a resync that finds
    it), before it is established. Set it before the first event; until
    then a connection gets {!null_handlers}. *)

val pm : t -> Pm_lib.t

val conns : t -> conn list
(** Tracked connections in creation order. *)

val find : t -> int -> conn option
(** O(1) lookup by token. *)

val find_sub : conn -> int -> sub option

val on_event : t -> (Pm_msg.event -> unit) -> unit
(** Every subscribed event, after the connection's handlers: for events the
    view does not model (local-address changes) or only records
    ([Add_addr]). *)
