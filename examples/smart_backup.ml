(* Smart backup (paper §4.2, Fig 2a).

   A transfer runs on the primary path while a backup interface stays cold
   (break-before-make: no energy wasted keeping it up). At t=1s the primary
   turns terrible (30% loss). The subflow controller — running in userspace,
   talking to the "kernel" over netlink — watches [timeout] events and, when
   the retransmission timer exceeds 1 second, kills the primary subflow and
   opens one over the backup interface.

     dune exec examples/smart_backup.exe
*)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Backup = Smapp_controllers.Backup

let () =
  let engine = Engine.create ~seed:42 () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let primary = List.nth topo.Topology.paths 0 in
  let backup = List.nth topo.Topology.paths 1 in
  let client = Endpoint.of_host topo.Topology.client in
  let server = Endpoint.of_host topo.Topology.server in

  (* control plane: netlink channel + kernel PM + the userspace library *)
  let setup = Setup.attach client in
  let controller =
    Backup.start setup.Setup.pm
      {
        Backup.rto_threshold = Time.span_s 1;
        backup_sources = [ backup.Topology.client_addr ];
        backup_destination = Some (Ip.endpoint backup.Topology.server_addr 80);
        max_failovers = 8;
      }
  in

  let received = ref 0 in
  Endpoint.listen server ~port:80 (fun conn ->
      Connection.set_receive conn (fun len -> received := !received + len));

  let conn =
    Endpoint.connect client ~src:primary.Topology.client_addr
      ~dst:(Ip.endpoint primary.Topology.server_addr 80)
      ()
  in
  Connection.subscribe conn (fun ev ->
      (match ev with
      | Connection.Subflow_rto (_, rto, n) ->
          Printf.printf "%.3fs  timeout event: rto=%.2fs (expiration #%d)\n"
            (Time.to_float_s (Engine.now engine))
            (Time.span_to_float_s rto) n
      | Connection.Subflow_established sf ->
          Format.printf "%.3fs  subflow up: %a@."
            (Time.to_float_s (Engine.now engine))
            Subflow.pp sf
      | Connection.Subflow_closed (sf, err) ->
          Format.printf "%.3fs  subflow down: %a (%s)@."
            (Time.to_float_s (Engine.now engine))
            Subflow.pp sf
            (match err with None -> "fin" | Some e -> Smapp_tcp.Tcp_error.to_string e)
      | _ -> ());
      match ev with
      | Connection.Established -> Connection.send conn 50_000_000
      | _ -> ());

  (* the radio degrades one second in *)
  Netem.loss_at engine (Time.add Time.zero (Time.span_s 1)) primary.Topology.cable 0.30;
  Printf.printf "t=1s: primary path loss jumps to 30%%\n\n";

  Engine.run_until engine (Time.add Time.zero (Time.span_s 6));

  Printf.printf "\nfailovers performed by the controller: %d\n" (Backup.failovers controller);
  Printf.printf "delivered %d bytes in 6 s despite the dead primary\n" !received;
  List.iteri
    (fun i (p : Topology.path) ->
      Printf.printf "path %d carried %d bytes\n" i
        (Link.stats p.Topology.cable.Topology.fwd).Link.bytes_delivered)
    topo.Topology.paths
