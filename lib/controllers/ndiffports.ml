module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_netsim

type t = { view : Conn_view.t }

let start pm ~n =
  let t = { view = Conn_view.create pm () } in
  let on_established (conn : Conn_view.conn) =
    let flow = conn.Conn_view.cv_initial_flow in
    for _ = 2 to n do
      Pm_lib.create_subflow pm ~token:conn.Conn_view.cv_token
        ~src:flow.Ip.src.Ip.addr ~dst:flow.Ip.dst ()
    done
  in
  let h = { Conn_view.null_handlers with on_established } in
  Conn_view.control t.view (fun _ -> h);
  t
