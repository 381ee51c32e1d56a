(* Quickstart: a Multipath TCP connection over two paths.

   Builds a two-path topology (think: a phone with WiFi + cellular), opens an
   MPTCP connection, joins the second path, transfers 2 MB and shows that
   both paths carried data.

     dune exec examples/quickstart.exe
*)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp

let () =
  (* 1. a simulation engine: all time and randomness flow through it *)
  let engine = Engine.create ~seed:1 () in

  (* 2. two disjoint 5 Mbps / 10 ms paths between client and server *)
  let topo = Topology.parallel_paths engine ~n:2 () in
  let path0 = List.nth topo.Topology.paths 0 in
  let path1 = List.nth topo.Topology.paths 1 in

  (* 3. MPTCP endpoints (socket layer) on both hosts *)
  let client = Endpoint.of_host topo.Topology.client in
  let server = Endpoint.of_host topo.Topology.server in

  (* 4. server: accept connections on port 80 and count the bytes *)
  let received = ref 0 in
  Endpoint.listen server ~port:80 (fun conn ->
      Printf.printf "[server] accepted connection, token=%08x\n"
        (Connection.local_token conn);
      Connection.set_receive conn (fun len -> received := !received + len));

  (* 5. client: connect over path 0 (this sends the MP_CAPABLE SYN) *)
  let conn =
    Endpoint.connect client ~src:path0.Topology.client_addr
      ~dst:(Ip.endpoint path0.Topology.server_addr 80)
      ()
  in

  (* 6. watch the connection's life; join path 1 once established *)
  Connection.subscribe conn (fun ev ->
      Format.printf "[client] %.3fs  %a@."
        (Time.to_float_s (Engine.now engine))
        Connection.pp_event ev;
      match ev with
      | Connection.Established ->
          (match
             Connection.add_subflow conn ~src:path1.Topology.client_addr
               ~dst:(Ip.endpoint path1.Topology.server_addr 80)
               ()
           with
          | Ok _ -> ()
          | Error e -> Printf.printf "join failed: %s\n" e);
          Connection.send conn 2_000_000;
          Connection.close conn
      | Connection.Data_received _ | Connection.Subflow_established _
      | Connection.Subflow_closed _ | Connection.Subflow_rto _
      | Connection.Remote_add_addr _ | Connection.Remote_rem_addr _
      | Connection.Closed ->
          ());

  (* 7. run the simulation *)
  Engine.run_until engine (Time.add Time.zero (Time.span_s 60));

  (* 8. results *)
  Printf.printf "\nserver received %d bytes in %.2f simulated seconds\n" !received
    (Time.to_float_s (Engine.now engine));
  List.iteri
    (fun i (p : Topology.path) ->
      let st = Link.stats p.Topology.cable.Topology.fwd in
      Printf.printf "path %d carried %d bytes (%d segments)\n" i st.Link.bytes_delivered
        st.Link.delivered)
    topo.Topology.paths;
  Printf.printf "both paths used: the two 5 Mbps links aggregate.\n"
