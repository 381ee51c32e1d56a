(* Smarter exploitation of flow-based load balancing (paper §4.4, Fig 2c).

   Client and server sit behind two routers that ECMP-hash each flow onto
   one of four parallel 8 Mbps paths. ndiffports opens 5 subflows with
   random source ports and hopes they spread; the refresh controller polls
   each subflow's pacing_rate every 2.5 s and replaces the slowest with a
   fresh random port — re-rolling the dice until all four paths carry data.

     dune exec examples/load_balancing.exe
*)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Refresh = Smapp_controllers.Refresh

let file_bytes = 30_000_000

let run ~use_refresh ~seed =
  let engine = Engine.create ~seed () in
  let topo = Topology.ecmp_fabric engine ~salt:seed ~n:4 () in
  let client = Endpoint.of_host ~cc:Smapp_tcp.Cc.Reno topo.Topology.client in
  let server = Endpoint.of_host ~cc:Smapp_tcp.Cc.Reno topo.Topology.server in
  let stats = ref None in
  Endpoint.listen server ~port:80 (fun conn ->
      stats := Some (Smapp_apps.Bulk.receiver conn ~expect:file_bytes));
  if use_refresh then begin
    let setup = Setup.attach client in
    ignore (Refresh.start setup.Setup.pm (Refresh.default_config ~subflows:5 ()))
  end
  else Path_manager.auto_install (Path_manager.ndiffports ~n:5) client;
  let conn =
    Endpoint.connect client
      ~src:(List.hd (Host.addresses topo.Topology.client))
      ~dst:(Ip.endpoint (List.hd (Host.addresses topo.Topology.server)) 80)
      ()
  in
  Smapp_apps.Bulk.sender conn ~bytes:file_bytes;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 200));
  let completion =
    match !stats with
    | Some s -> (
        match s.Smapp_apps.Bulk.completed_at with
        | Some t -> Time.to_float_s t
        | None -> nan)
    | None -> nan
  in
  let paths_used =
    List.length
      (List.filter
         (fun (c : Topology.duplex) ->
           (Link.stats c.Topology.fwd).Link.bytes_delivered > file_bytes / 100)
         topo.Topology.core)
  in
  (completion, paths_used)

let () =
  Printf.printf "30 MB over 4 ECMP paths (8 Mbps each), 5 subflows, 4 random seeds:\n\n";
  Printf.printf "%-6s %-28s %-28s\n" "seed" "ndiffports" "refresh";
  List.iter
    (fun seed ->
      let nd_t, nd_p = run ~use_refresh:false ~seed in
      let rf_t, rf_p = run ~use_refresh:true ~seed in
      Printf.printf "%-6d %6.1f s on %d paths %12.1f s on %d paths\n" seed nd_t nd_p rf_t
        rf_p)
    [ 101; 202; 303; 404 ];
  Printf.printf
    "\nndiffports is stuck with whatever the hash gave it; refresh keeps\n\
     re-rolling the slowest subflow until all four paths are in use.\n"
