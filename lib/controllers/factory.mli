(** Per-connection controller instantiation over one shared subscription.

    [start pm make] subscribes once (through a shared {!Conn_view}) and calls
    [make] for every connection that appears, giving each connection its own
    controller instance while all instances share the netlink channel, the
    event mask and the view. This is the scale-out shape: a workload with
    thousands of connections pays one subscription, and each connection's
    events reach its own instance, the handlers its view record carries. An
    instance is whatever [make] returns: {!Fullmesh.per_conn} returns the
    handlers of one controller built on this factory's view, so every
    instance runs the policy {!Fullmesh.start} runs. *)

module Pm_lib = Smapp_core.Pm_lib

type events = Conn_view.handlers = {
  on_established : Conn_view.conn -> unit;
  on_sub_established : Conn_view.conn -> Conn_view.sub -> unit;
  on_sub_closed :
    Conn_view.conn -> Conn_view.sub -> Smapp_tcp.Tcp_error.t option -> unit;
  on_timeout :
    Conn_view.conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit;
  on_closed : Conn_view.conn -> unit;
}
(** What one per-connection controller instance reacts to:
    {!Conn_view.handlers} under the name perfbench wraps. *)

val null_events : events
(** Ignores everything; override the fields you need. *)

type t

val start : Pm_lib.t -> (t -> Conn_view.conn -> events) -> t
(** [make] runs when a connection first appears (Created event or resync
    discovery), before establishment; nothing reaches the instance after
    its [on_closed]. [Timeout] events are subscribed on top of the view's
    own. *)

val view : t -> Conn_view.t

val instantiated : t -> int
(** Total instances ever created. *)
