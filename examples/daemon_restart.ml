(* Surviving a path-manager daemon restart.

   The userspace controller talks to the kernel over a lossy Netlink
   channel (5% message drop); halfway through, the daemon process crashes
   for half a second. The PM library's recovery protocol — retransmitted
   commands under idempotency keys, event sequence numbers, and a full
   [Dump] resync on restart — brings the controller's view back in line
   with true kernel state without double-creating any subflow.

     dune exec examples/daemon_restart.exe
*)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Pm_lib = Smapp_core.Pm_lib
module Channel = Smapp_netlink.Channel
module Fullmesh = Smapp_controllers.Fullmesh
module Conn_view = Smapp_controllers.Conn_view

let () =
  let engine = Engine.create ~seed:3 () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let client = Endpoint.of_host topo.Topology.client in
  let server = Endpoint.of_host topo.Topology.server in

  (* control plane over a faulty channel: 5% drop, bounded socket buffer *)
  let profile = { Channel.reliable with Channel.drop = 0.05; buffer = 64 } in
  let setup = Setup.attach ~profile client in

  (* fullmesh controller, as in the paper's §4.1 *)
  let controller =
    Fullmesh.start setup.Setup.pm
      (Fullmesh.default_config
         ~local_addresses:
           (List.map (fun p -> p.Topology.client_addr) topo.Topology.paths)
         ())
  in

  Endpoint.listen server ~port:80 Smapp_apps.Keepalive.echo_peer;
  let conn =
    Endpoint.connect client
      ~src:(List.hd topo.Topology.paths).Topology.client_addr
      ~dst:(Ip.endpoint (List.hd topo.Topology.paths).Topology.server_addr 80)
      ()
  in
  ignore
    (Smapp_apps.Keepalive.start conn ~message_bytes:500 ~interval:(Time.span_ms 200)
       ~duration:(Time.span_s 9) ());

  let report label =
    Printf.printf "%5.1fs  %-18s kernel=%d view=%d  retries=%d resyncs=%d restarts=%d\n"
      (Time.to_float_s (Engine.now engine))
      label
      (List.length (Connection.subflows conn))
      (match Conn_view.find (Fullmesh.view controller) (Connection.local_token conn) with
      | Some c -> List.length c.Conn_view.cv_subs
      | None -> 0)
      (Pm_lib.retries setup.Setup.pm)
      (Pm_lib.resyncs setup.Setup.pm)
      (Pm_lib.restarts setup.Setup.pm)
  in
  let at s f = ignore (Engine.at engine (Time.add Time.zero (Time.span_s s)) f) in
  at 1 (fun () -> report "steady state");
  at 3 (fun () ->
      report "daemon crashes";
      Channel.set_user_up setup.Setup.channel false);
  at 4 (fun () ->
      Channel.set_user_up setup.Setup.channel true;
      report "daemon restarts");
  at 5 (fun () -> report "after resync");
  Engine.run_until engine (Time.add Time.zero (Time.span_s 8));
  report "end";
  let stats = Channel.stats setup.Setup.channel in
  Printf.printf
    "channel: %d dropped, %d ENOBUFS, %d crash window(s); view matches kernel: %b\n"
    stats.Channel.s_dropped stats.Channel.s_overflowed stats.Channel.s_crashes
    (match Conn_view.find (Fullmesh.view controller) (Connection.local_token conn) with
    | Some c ->
        List.sort compare (List.map (fun s -> s.Conn_view.sv_id) c.Conn_view.cv_subs)
        = List.sort compare
            (List.filter_map
               (fun sf -> if Subflow.established sf then Some sf.Subflow.id else None)
               (Connection.subflows conn))
    | None -> false)
