module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg

type events = {
  on_established : Conn_view.conn -> unit;
  on_sub_established : Conn_view.conn -> Conn_view.sub -> unit;
  on_sub_closed :
    Conn_view.conn -> Conn_view.sub -> Smapp_tcp.Tcp_error.t option -> unit;
  on_timeout :
    Conn_view.conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit;
  on_closed : Conn_view.conn -> unit;
}

let null_events =
  {
    on_established = (fun _ -> ());
    on_sub_established = (fun _ _ -> ());
    on_sub_closed = (fun _ _ _ -> ());
    on_timeout = (fun _ ~sub_id:_ ~rto:_ ~count:_ -> ());
    on_closed = (fun _ -> ());
  }

type t = {
  view : Conn_view.t;
  instances : (int, events) Hashtbl.t; (* token -> live controller instance *)
  mutable instantiated : int; (* total over the factory's lifetime *)
}

let view t = t.view
let instantiated t = t.instantiated

(* The connection's instance; [null_events] once it is gone. *)
let instance t conn =
  match Hashtbl.find t.instances conn.Conn_view.cv_token with
  | inst -> inst
  | exception Not_found -> null_events

(* One shared Conn_view and netlink subscription serve every instance: the
   factory fans each connection-scoped event out to the one controller that
   owns the connection, so adding a connection costs an instance, not a
   subscription. *)
let start pm_lib make =
  let view = Conn_view.create pm_lib ~extra_mask:Pm_msg.Mask.timeout () in
  let t = { view; instances = Hashtbl.create 64; instantiated = 0 } in
  Conn_view.on_conn_created view (fun conn ->
      let token = conn.Conn_view.cv_token in
      if not (Hashtbl.mem t.instances token) then begin
        t.instantiated <- t.instantiated + 1;
        Hashtbl.replace t.instances token (make t conn)
      end);
  Conn_view.on_conn_established view (fun conn -> (instance t conn).on_established conn);
  Conn_view.on_sub_established view (fun conn sub ->
      (instance t conn).on_sub_established conn sub);
  Conn_view.on_sub_closed view (fun conn sub error ->
      (instance t conn).on_sub_closed conn sub error);
  Conn_view.on_timeout view (fun conn ~sub_id ~rto ~count ->
      (instance t conn).on_timeout conn ~sub_id ~rto ~count);
  Conn_view.on_conn_closed view (fun conn ->
      (instance t conn).on_closed conn;
      Hashtbl.remove t.instances conn.Conn_view.cv_token);
  t
