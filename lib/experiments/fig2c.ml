open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Refresh = Smapp_controllers.Refresh

type variant = Ndiffports | Refresh

let variant_name = function Ndiffports -> "ndiffports" | Refresh -> "refresh"

type result = {
  variant : variant;
  completion_times : float list;
  paths_used_final : int list;
}

let subflows = 5

let run_once ~seed ~file_bytes ~variant =
  let engine = Engine.create ~seed () in
  let topo = Topology.ecmp_fabric engine ~salt:seed ~n:4 () in
  let client_ep = Endpoint.of_host ~cc:Smapp_tcp.Cc.Reno topo.Topology.client in
  let server_ep = Endpoint.of_host ~cc:Smapp_tcp.Cc.Reno topo.Topology.server in
  let client_addr = List.hd (Host.addresses topo.Topology.client) in
  let server_addr = List.hd (Host.addresses topo.Topology.server) in
  let stats = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn ->
      stats := Some (Smapp_apps.Bulk.receiver conn ~expect:file_bytes));
  (match variant with
  | Ndiffports ->
      Path_manager.auto_install (Path_manager.ndiffports ~n:subflows) client_ep
  | Refresh ->
      let setup = Setup.attach client_ep in
      ignore
        (Refresh.start setup.Setup.pm (Refresh.default_config ~subflows ())));
  let conn =
    Endpoint.connect client_ep ~src:client_addr ~dst:(Ip.endpoint server_addr 80) ()
  in
  Smapp_apps.Bulk.sender conn ~bytes:file_bytes;
  (* generous horizon: worst case single path ~110 s *)
  Harness.run_seconds engine 400.0;
  let completion =
    match !stats with
    | Some s -> Option.map Time.to_float_s s.Smapp_apps.Bulk.completed_at
    | None -> None
  in
  let paths_used =
    List.length
      (List.filter
         (fun (cable : Topology.duplex) ->
           (Link.stats cable.Topology.fwd).Link.bytes_delivered > file_bytes / 100)
         topo.Topology.core)
  in
  (completion, paths_used)

let run ?pool ?(seeds = Harness.seeds 20) ?(file_bytes = 100_000_000) ~variant () =
  let outcomes =
    Harness.sweep ?pool (fun seed -> run_once ~seed ~file_bytes ~variant) seeds
  in
  {
    variant;
    completion_times = List.filter_map fst outcomes;
    paths_used_final = List.map snd outcomes;
  }

let ideal_completion ~file_bytes ~paths ~rate_bps =
  (* payload efficiency: 1400 of 1460 on-wire bytes are goodput *)
  let efficiency = 1400.0 /. 1460.0 in
  float_of_int file_bytes *. 8.0 /. (float_of_int paths *. rate_bps *. efficiency)
