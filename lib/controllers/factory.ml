module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg

type events = Conn_view.handlers = {
  on_established : Conn_view.conn -> unit;
  on_sub_established : Conn_view.conn -> Conn_view.sub -> unit;
  on_sub_closed :
    Conn_view.conn -> Conn_view.sub -> Smapp_tcp.Tcp_error.t option -> unit;
  on_timeout :
    Conn_view.conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit;
  on_closed : Conn_view.conn -> unit;
}

let null_events = Conn_view.null_handlers

type t = {
  view : Conn_view.t;
  mutable instantiated : int; (* total over the factory's lifetime *)
}

let view t = t.view
let instantiated t = t.instantiated

(* One shared Conn_view and netlink subscription serve every instance: each
   connection keeps the instance [make] gave it, so adding a connection
   costs an instance, not a subscription. *)
let start pm_lib make =
  let view = Conn_view.create pm_lib ~extra_mask:Pm_msg.Mask.timeout () in
  let t = { view; instantiated = 0 } in
  Conn_view.control view (fun conn ->
      t.instantiated <- t.instantiated + 1;
      make t conn);
  t
