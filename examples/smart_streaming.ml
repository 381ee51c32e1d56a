(* Smart streaming (paper §4.3, Fig 2b).

   A streaming app sends a 64 KB block every second and wants each block
   delivered within the second. The controller checks mid-block progress by
   querying the kernel (the paper extracts snd_una over netlink) and opens a
   subflow on the spare interface when the stream falls behind; any subflow
   whose RTO backs off beyond 1 s is closed immediately.

     dune exec examples/smart_streaming.exe
*)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Stream = Smapp_controllers.Stream

let run ~smart ~loss =
  let engine = Engine.create ~seed:7 () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let p0 = List.nth topo.Topology.paths 0 in
  let p1 = List.nth topo.Topology.paths 1 in
  Topology.set_duplex_loss p0.Topology.cable loss;
  let client = Endpoint.of_host topo.Topology.client in
  let server = Endpoint.of_host topo.Topology.server in
  let receiver = ref None in
  let blocks = 30 in
  Endpoint.listen server ~port:80 (fun conn ->
      receiver := Some (Smapp_apps.Stream_app.receiver conn ~blocks ()));
  if smart then begin
    let setup = Setup.attach client in
    ignore
      (Stream.start setup.Setup.pm
         (Stream.default_config ~spare_source:p1.Topology.client_addr
            ~spare_destination:(Ip.endpoint p1.Topology.server_addr 80)
            ()))
  end;
  let conn =
    Endpoint.connect client ~src:p0.Topology.client_addr
      ~dst:(Ip.endpoint p0.Topology.server_addr 80)
      ()
  in
  (* the non-smart baseline opens both subflows up front, like fullmesh *)
  if not smart then
    Connection.subscribe conn (function
      | Connection.Established ->
          ignore
            (Connection.add_subflow conn ~src:p1.Topology.client_addr
               ~dst:(Ip.endpoint p1.Topology.server_addr 80)
               ())
      | _ -> ());
  ignore (Smapp_apps.Stream_app.sender conn ~blocks ());
  Engine.run_until engine (Time.add Time.zero (Time.span_s 70));
  match !receiver with
  | Some r -> Smapp_apps.Stream_app.block_delays r
  | None -> []

let describe name delays =
  match delays with
  | [] -> Printf.printf "%-22s no blocks delivered!\n" name
  | _ ->
      let arr = Array.of_list delays in
      let p q = Smapp_stats.Summary.percentile arr q in
      Printf.printf "%-22s blocks=%2d  median=%.2fs  p90=%.2fs  worst=%.2fs\n" name
        (List.length delays) (p 50.) (p 90.)
        (List.fold_left Float.max 0. delays)

let () =
  Printf.printf "64 KB blocks, one per second, 30%% loss on the primary path:\n\n";
  describe "default full-mesh" (run ~smart:false ~loss:0.30);
  describe "smart-stream" (run ~smart:true ~loss:0.30);
  Printf.printf
    "\nthe smart controller detects mid-block that the primary underperforms,\n\
     moves the stream to the spare interface and keeps every block near the\n\
     no-loss delivery time.\n"
