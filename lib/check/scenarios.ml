open Smapp_sim
open Smapp_netsim
open Smapp_mptcp

(* All scenarios run under the conformance checker: a digest only says what
   the final state is, the FSM tables say every step there was legal. *)
let with_fsm f =
  let was = Fsm.installed () in
  if not was then Fsm.install ();
  Fun.protect ~finally:(fun () -> if not was then Fsm.uninstall ()) f

let phase_of conn = Connection.phase_name (Connection.phase conn)

let digest_pair ~client ~server =
  let server_part =
    match server with
    | None -> "server:none"
    | Some c ->
        Printf.sprintf "server:%s rx=%d subs=%d" (phase_of c)
          (Connection.bytes_received c)
          (List.length (Connection.subflows c))
  in
  Printf.sprintf "client:%s acked=%d subs=%d | %s" (phase_of client)
    (Connection.bytes_acked client)
    (List.length (Connection.subflows client))
    server_part

let build engine =
  let topo = Topology.parallel_paths engine ~n:2 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn -> accepted := Some conn);
  let p0 = List.hd topo.Topology.paths in
  let conn =
    Endpoint.connect client_ep ~src:p0.Topology.client_addr
      ~dst:(Ip.endpoint p0.Topology.server_addr 80)
      ()
  in
  (topo, conn, accepted)

let join_second_path topo conn =
  let p1 = List.nth topo.Topology.paths 1 in
  Connection.add_subflow conn ~src:p1.Topology.client_addr
    ~dst:(Ip.endpoint p1.Topology.server_addr 80)
    ()

let horizon = Time.add Time.zero (Time.span_s 120)

(* --- the baseline two-subflow transfer --------------------------------------- *)

let two_subflow_transfer engine =
  with_fsm (fun () ->
      let topo, conn, accepted = build engine in
      Connection.subscribe conn (function
        | Connection.Established ->
            ignore (join_second_path topo conn);
            Connection.send conn 200_000;
            Connection.close conn
        | _ -> ());
      Engine.run_until engine horizon;
      digest_pair ~client:conn ~server:!accepted)

(* --- PR 2 regression: CLOSE_WAIT must keep transmitting ----------------------- *)

let close_wait_deadlock engine =
  with_fsm (fun () ->
      let topo, conn, accepted = build engine in
      Connection.subscribe conn (function
        | Connection.Established ->
            ignore (join_second_path topo conn);
            (* enough data that the transfer is still in flight when the
               server's FIN arrives and flips the subflows to CLOSE_WAIT *)
            Connection.send conn 400_000;
            Connection.close conn
        | _ -> ());
      (* server closes its direction immediately on accept: it has nothing
         to send, so its FIN races the client's data *)
      ignore
        (Engine.after engine (Time.span_ms 200) (fun () ->
             match !accepted with Some c -> Connection.close c | None -> ()));
      Engine.run_until engine horizon;
      (* a deadlocked pump strands bytes: rx shows up short in the digest *)
      digest_pair ~client:conn ~server:!accepted)

(* --- PR 2 regression: no subflows after FIN ----------------------------------- *)

let post_fin_subflow engine =
  with_fsm (fun () ->
      let topo, conn, accepted = build engine in
      (* a join at P_draining (close called, FIN not yet sent) is legal —
         a controller may open a spare path to finish the drain faster *)
      let draining_join_ok = ref false in
      (* but once the FIN is out the join must be refused; were one
         registered anyway, the subflow_open_hook raises Conformance *)
      let late_refused = ref false in
      Connection.subscribe conn (function
        | Connection.Established ->
            Connection.send conn 50_000;
            Connection.close conn;
            (match join_second_path topo conn with
            | Ok _ -> draining_join_ok := true
            | Error _ -> ())
        | _ -> ());
      ignore
        (Engine.every engine (Time.span_ms 50) (fun () ->
             match Connection.phase conn with
             | Connection.P_finning | Connection.P_closed ->
                 (match join_second_path topo conn with
                 | Error _ -> late_refused := true
                 | Ok _ -> ());
                 `Stop
             | Connection.P_init | Connection.P_established
             | Connection.P_draining ->
                 `Continue));
      Engine.run_until engine horizon;
      Printf.sprintf "%s | draining-join:%b post-fin-refused:%b"
        (digest_pair ~client:conn ~server:!accepted)
        !draining_join_ok !late_refused)
