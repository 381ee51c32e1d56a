(* Tests for the application workloads and a smoke pass over each
   experiment at miniature scale. *)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module E = Smapp_experiments

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let make ?(seed = 11) () =
  let engine = Engine.create ~seed () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  (engine, topo, client_ep, server_ep)

let connect (topo : Topology.parallel) client_ep =
  let p0 = List.hd topo.Topology.paths in
  Endpoint.connect client_ep ~src:p0.Topology.client_addr
    ~dst:(Ip.endpoint p0.Topology.server_addr 80)
    ()

(* --- bulk ------------------------------------------------------------------------ *)

let test_bulk_transfer () =
  let engine, topo, client_ep, server_ep = make () in
  let stats = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn ->
      stats := Some (Smapp_apps.Bulk.receiver conn ~expect:500_000));
  let conn = connect topo client_ep in
  Smapp_apps.Bulk.sender conn ~bytes:500_000;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 60));
  match !stats with
  | Some s ->
      checki "all received" 500_000 s.Smapp_apps.Bulk.received;
      checkb "completion recorded" true (s.Smapp_apps.Bulk.completed_at <> None);
      checkb "close recorded" true (s.Smapp_apps.Bulk.closed_at <> None)
  | None -> Alcotest.fail "no connection accepted"

(* --- stream ---------------------------------------------------------------------- *)

let test_stream_schedule_and_delays () =
  let engine, topo, client_ep, server_ep = make () in
  let receiver = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn ->
      receiver := Some (Smapp_apps.Stream_app.receiver conn ~blocks:5 ()));
  let conn = connect topo client_ep in
  let sender = Smapp_apps.Stream_app.sender conn ~blocks:5 () in
  Engine.run_until engine (Time.add Time.zero (Time.span_s 30));
  checki "five blocks sent" 5 (Smapp_apps.Stream_app.blocks_sent sender);
  match !receiver with
  | Some r ->
      checki "five blocks completed" 5 (Smapp_apps.Stream_app.blocks_completed r);
      let delays = Smapp_apps.Stream_app.block_delays r in
      (* clean 5 Mbps / 10 ms path: every block lands within ~0.2 s *)
      checkb "delays small on clean path" true (List.for_all (fun d -> d < 0.3) delays);
      checkb "delays positive" true (List.for_all (fun d -> d > 0.0) delays)
  | None -> Alcotest.fail "no receiver"

(* --- http ----------------------------------------------------------------------- *)

let test_http_request_response () =
  let engine, topo, client_ep, server_ep = make () in
  Smapp_apps.Http.server server_ep ~port:80 ~response_bytes:200_000;
  let p0 = List.hd topo.Topology.paths in
  let finished = ref None in
  let _stats =
    Smapp_apps.Http.client client_ep ~src:p0.Topology.client_addr
      ~dst:(Ip.endpoint p0.Topology.server_addr 80)
      ~response_bytes:200_000 ~requests:5
      ~on_done:(fun s -> finished := Some s)
      ()
  in
  Engine.run_until engine (Time.add Time.zero (Time.span_s 120));
  match !finished with
  | Some s ->
      checki "five ok" 5 s.Smapp_apps.Http.completed;
      checki "none failed" 0 s.Smapp_apps.Http.failed;
      checki "five timings" 5 (List.length s.Smapp_apps.Http.response_times)
  | None -> Alcotest.fail "client never finished"

(* --- keepalive ------------------------------------------------------------------- *)

let test_keepalive_cadence () =
  let engine, topo, client_ep, server_ep = make () in
  Endpoint.listen server_ep ~port:80 (fun conn -> Smapp_apps.Keepalive.echo_peer conn);
  let conn = connect topo client_ep in
  let app =
    Smapp_apps.Keepalive.start conn ~interval:(Time.span_s 10) ~duration:(Time.span_s 65) ()
  in
  Engine.run_until engine (Time.add Time.zero (Time.span_s 120));
  (* messages at 10,20,30,40,50,60 then the 70 tick stops *)
  checki "six keepalives" 6 (Smapp_apps.Keepalive.messages_sent app);
  checkb "closed at end" true (Connection.closed conn)

(* --- experiments smoke at miniature scale ------------------------------------------ *)

let test_fig2a_smoke () =
  let r = E.Fig2a.run ~duration:4.0 () in
  checkb "failover happened" true (r.E.Fig2a.failover_at <> None);
  checkb "master carried data" true (List.length r.E.Fig2a.master.E.Fig2a.points > 10);
  checkb "backup carried data" true (List.length r.E.Fig2a.backup.E.Fig2a.points > 10);
  (* failover strictly after the loss starts at 1 s *)
  match r.E.Fig2a.failover_at with
  | Some t -> checkb "after loss onset" true (t > 1.0 && t < 4.0)
  | None -> ()

let test_fig2b_smoke () =
  let r =
    E.Fig2b.run ~seeds:[ 1000 ] ~blocks:10 ~loss:0.20 ~variant:E.Fig2b.Smart_stream ()
  in
  checkb "most blocks complete" true (r.E.Fig2b.blocks_completed >= 8)

(* At 30% loss seed 1028's MP_CAPABLE handshake needs five SYN retries and
   completes at 31 s. The run lasts from establishment, so all 30 blocks
   still go out and arrive. *)
let test_fig2b_late_establishment () =
  List.iter
    (fun variant ->
      let r = E.Fig2b.run ~seeds:[ 1028 ] ~blocks:30 ~loss:0.3 ~variant () in
      checki (E.Fig2b.variant_name variant ^ ": blocks completed") 30 r.E.Fig2b.blocks_completed)
    [ E.Fig2b.Default_fullmesh; E.Fig2b.Smart_stream ]

let test_fig2c_smoke () =
  let r =
    E.Fig2c.run ~seeds:[ 1000 ] ~file_bytes:5_000_000 ~variant:E.Fig2c.Ndiffports ()
  in
  checki "one completion" 1 (List.length r.E.Fig2c.completion_times);
  match r.E.Fig2c.paths_used_final with
  | [ n ] -> checkb "at least one path" true (n >= 1 && n <= 4)
  | _ -> Alcotest.fail "one run expected"

let test_fig3_smoke () =
  let k = E.Fig3.run ~requests:30 ~variant:E.Fig3.Kernel () in
  let u = E.Fig3.run ~requests:30 ~variant:E.Fig3.Userspace () in
  checkb "kernel delays measured" true (List.length k.E.Fig3.delays >= 25);
  checkb "userspace delays measured" true (List.length u.E.Fig3.delays >= 25);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  checkb "userspace slower than kernel" true (mean u.E.Fig3.delays > mean k.E.Fig3.delays)

let test_backoff_smoke () =
  (* short horizon, total loss, fewer allowed backoffs: dies quickly *)
  let r = E.Backoff.run ~loss:1.0 ~max_backoffs:4 ~horizon:60.0 () in
  (match r.E.Backoff.subflow_died_at with
  | Some t -> checkb "died after backoffs" true (t > 1.0)
  | None -> Alcotest.fail "subflow should have died");
  checkb "several rtos" true (r.E.Backoff.rto_expirations >= 4);
  checkb "failover delivered data" true (r.E.Backoff.bytes_after_failover > 0)

(* The closed form predicts the death to the millisecond: 4 doublings, and
   Linux's 15 (16 intervals from the first RTO, ~16.4 min). *)
let test_backoff_kill_predicted () =
  List.iter
    (fun (max_backoffs, horizon) ->
      let r = E.Backoff.run ~loss:1.0 ~max_backoffs ~horizon () in
      match r.E.Backoff.subflow_died_at with
      | Some died ->
          let err = Float.abs (died -. r.E.Backoff.predicted_kill_s) in
          checkb
            (Printf.sprintf "%d backoffs: died at %.6f s, predicted %.6f s" max_backoffs died
               r.E.Backoff.predicted_kill_s)
            true (err < 1e-3)
      | None -> Alcotest.failf "%d backoffs: the subflow should have died" max_backoffs)
    [ (4, 60.0); (15, 1000.0) ]

let test_fullmesh_recovery_smoke () =
  let r = E.Fullmesh_recovery.run () in
  checki "mesh alive at the end" 2 r.E.Fullmesh_recovery.final_subflows;
  checkb "keepalives flowed" true (r.E.Fullmesh_recovery.messages_sent >= 4);
  checkb "controller recovered the RST" true (r.E.Fullmesh_recovery.reconnects >= 1)

let () =
  Alcotest.run "apps"
    [
      ( "workloads",
        [
          Alcotest.test_case "bulk" `Quick test_bulk_transfer;
          Alcotest.test_case "stream" `Quick test_stream_schedule_and_delays;
          Alcotest.test_case "http" `Quick test_http_request_response;
          Alcotest.test_case "keepalive" `Quick test_keepalive_cadence;
        ] );
      ( "experiments smoke",
        [
          Alcotest.test_case "fig2a" `Quick test_fig2a_smoke;
          Alcotest.test_case "fig2b" `Quick test_fig2b_smoke;
          Alcotest.test_case "fig2b late establishment" `Quick test_fig2b_late_establishment;
          Alcotest.test_case "fig2c" `Quick test_fig2c_smoke;
          Alcotest.test_case "fig3" `Quick test_fig3_smoke;
          Alcotest.test_case "backoff" `Quick test_backoff_smoke;
          Alcotest.test_case "backoff kill predicted" `Quick test_backoff_kill_predicted;
          Alcotest.test_case "fullmesh recovery" `Slow test_fullmesh_recovery_smoke;
        ] );
    ]
