(* Tests for the four userspace subflow controllers, each driven through the
   full stack: simulated network -> MPTCP -> netlink channel -> controller. *)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module C = Smapp_controllers

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let make ?(seed = 77) ?losses () =
  let engine = Engine.create ~seed () in
  let topo = Topology.parallel_paths engine ?losses ~n:2 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn -> accepted := Some conn);
  let setup = Setup.attach client_ep in
  (engine, topo, client_ep, server_ep, accepted, setup)

let connect (topo : Topology.parallel) client_ep =
  let p0 = List.hd topo.Topology.paths in
  Endpoint.connect client_ep ~src:p0.Topology.client_addr
    ~dst:(Ip.endpoint p0.Topology.server_addr 80)
    ()

let addr (topo : Topology.parallel) i = (List.nth topo.Topology.paths i).Topology.client_addr
let saddr (topo : Topology.parallel) i = (List.nth topo.Topology.paths i).Topology.server_addr

let run engine ms = Engine.run_until engine (Time.add Time.zero (Time.span_ms ms))

(* --- ndiffports ---------------------------------------------------------------- *)

let test_ndiffports_opens_n () =
  let engine, topo, client_ep, _, _, setup = make () in
  let _ctl = C.Ndiffports.start setup.Setup.pm ~n:4 in
  let conn = connect topo client_ep in
  run engine 1000;
  checki "four subflows" 4 (List.length (Connection.subflows conn));
  let ports =
    List.map (fun sf -> (Subflow.flow sf).Ip.src.Ip.port) (Connection.subflows conn)
  in
  checki "all distinct ports" 4 (List.length (List.sort_uniq Int.compare ports))

(* --- the two wirings of a policy ----------------------------------------------- *)

(* [Start] runs a controller on its own view; [Per_conn] runs one factory
   whose per-connection instances are the same controller's handlers (the
   wiring every workload uses). The policy tests below run under both. *)
type wiring = Start | Per_conn

(* The subflows-created counter, plus the controller itself under [Start],
   whose extra counters a factory's state does not expose. *)
let start_fullmesh wiring pm config =
  match wiring with
  | Start ->
      let ctl = C.Fullmesh.start pm config in
      ((fun () -> C.Fullmesh.subflows_created ctl), Some ctl)
  | Per_conn ->
      let state = C.Fullmesh.mesh_state config in
      ignore (C.Factory.start pm (C.Fullmesh.per_conn state) : C.Factory.t);
      ((fun () -> C.Fullmesh.mesh_subflows_created state), None)

(* The failover counter under either wiring. *)
let start_backup wiring pm config =
  match wiring with
  | Start ->
      let ctl = C.Backup.start pm config in
      fun () -> C.Backup.failovers ctl
  | Per_conn ->
      let state = C.Backup.backup_state config in
      ignore (C.Factory.start pm (C.Backup.per_conn state) : C.Factory.t);
      fun () -> C.Backup.backup_failovers state

(* --- fullmesh ------------------------------------------------------------------- *)

let fullmesh_config topo =
  C.Fullmesh.default_config ~local_addresses:[ addr topo 0; addr topo 1 ] ()

let test_fullmesh_builds_mesh wiring () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let created, _ = start_fullmesh wiring setup.Setup.pm (fullmesh_config topo) in
  let conn = connect topo client_ep in
  (* server announces its second address at 100 ms *)
  ignore
    (Engine.after engine (Time.span_ms 100) (fun () ->
         Connection.announce_addr (Option.get !accepted) (saddr topo 1) 80));
  run engine 2000;
  (* 2 locals x 2 remotes = 4 subflows *)
  checki "mesh" 4 (List.length (Connection.subflows conn));
  checki "three requested beside the initial one" 3 (created ())

let test_fullmesh_reconnects_after_rst wiring () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let created, ctl = start_fullmesh wiring setup.Setup.pm (fullmesh_config topo) in
  let conn = connect topo client_ep in
  ignore
    (Engine.after engine (Time.span_ms 100) (fun () ->
         Connection.announce_addr (Option.get !accepted) (saddr topo 1) 80));
  (* at 3 s the server resets a non-initial subflow (middlebox behaviour) *)
  ignore
    (Engine.after engine (Time.span_s 3) (fun () ->
         match !accepted with
         | Some sconn -> (
             match
               List.find_opt
                 (fun sf -> not sf.Subflow.is_initial)
                 (Connection.subflows sconn)
             with
             | Some sf -> Connection.remove_subflow sconn sf
             | None -> Alcotest.fail "no subflow to reset")
         | None -> Alcotest.fail "no server conn"));
  (* the reconnect delay after a RST is 1 s: by t=6 s the mesh must be whole again *)
  run engine 6000;
  checki "mesh restored" 4 (List.length (Connection.subflows conn));
  checki "the mesh's three requests plus one reconnect" 4 (created ());
  Option.iter
    (fun ctl ->
      checkb "a reconnect was scheduled" true (C.Fullmesh.reconnects_scheduled ctl >= 1))
    ctl

(* Interface tracking and stale suppression stay [Start]-only: they react to
   new_local_addr/del_local_addr, which a factory does not subscribe to. *)
let test_fullmesh_tracks_interfaces () =
  let engine, topo, client_ep, _, _, setup = make () in
  (* second NIC starts down: controller only knows address 0 *)
  let nic1 = List.nth (Host.nics topo.Topology.client) 1 in
  Host.set_nic_up nic1 false;
  let ctl =
    C.Fullmesh.start setup.Setup.pm
      (C.Fullmesh.default_config ~local_addresses:[ addr topo 0 ] ())
  in
  let conn = connect topo client_ep in
  run engine 1000;
  checki "one subflow while nic down" 1 (List.length (Connection.subflows conn));
  checki "one local addr known" 1 (List.length (C.Fullmesh.local_addresses ctl));
  (* NIC comes up -> new_local_addr -> mesh grows towards the known remote *)
  ignore (Engine.at engine (Time.add Time.zero (Time.span_ms 1500)) (fun () -> Host.set_nic_up nic1 true));
  run engine 4000;
  checki "two local addrs known" 2 (List.length (C.Fullmesh.local_addresses ctl));
  checki "second subflow created" 2 (List.length (Connection.subflows conn))

(* Handover churn: a subflow dies with an error while its source address is
   still present, so a reconnect is scheduled — but the interface goes away
   before the timer fires. The controller must not dial from a dead address;
   when the address returns, the mesh is rebuilt with a fresh budget. *)
let test_fullmesh_suppresses_stale_reconnect () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let ctl = C.Fullmesh.start setup.Setup.pm (fullmesh_config topo) in
  let conn = connect topo client_ep in
  let nic1 = List.nth (Host.nics topo.Topology.client) 1 in
  (* t=3 s: the server resets the addr-1 subflow -> reconnect due at ~4 s *)
  ignore
    (Engine.after engine (Time.span_s 3) (fun () ->
         match !accepted with
         | Some sconn -> (
             match
               List.find_opt
                 (fun sf -> not sf.Subflow.is_initial)
                 (Connection.subflows sconn)
             with
             | Some sf -> Connection.remove_subflow sconn sf
             | None -> Alcotest.fail "no subflow to reset")
         | None -> Alcotest.fail "no server conn"));
  (* t=3.5 s: handover — the interface (and its address) disappears *)
  ignore
    (Engine.at engine
       (Time.add Time.zero (Time.span_ms 3500))
       (fun () -> Host.set_nic_up nic1 false));
  (* t=6 s: the interface returns *)
  ignore
    (Engine.at engine
       (Time.add Time.zero (Time.span_s 6))
       (fun () -> Host.set_nic_up nic1 true));
  run engine 8000;
  checki "reconnect was scheduled before the handover" 1
    (C.Fullmesh.reconnects_scheduled ctl);
  checki "and suppressed when it fired on a dead address" 1
    (C.Fullmesh.stale_reconnects_suppressed ctl);
  checki "mesh rebuilt once the address returned" 2
    (List.length (Connection.subflows conn))

let test_fullmesh_backoff_reset_on_recovery wiring () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let created, ctl = start_fullmesh wiring setup.Setup.pm (fullmesh_config topo) in
  let conn = connect topo client_ep in
  ignore
    (Engine.after engine (Time.span_s 3) (fun () ->
         match !accepted with
         | Some sconn -> (
             match
               List.find_opt
                 (fun sf -> not sf.Subflow.is_initial)
                 (Connection.subflows sconn)
             with
             | Some sf -> Connection.remove_subflow sconn sf
             | None -> Alcotest.fail "no subflow to reset")
         | None -> Alcotest.fail "no server conn"));
  run engine 6000;
  checki "mesh restored" 2 (List.length (Connection.subflows conn));
  checki "one mesh request plus one reconnect" 2 (created ());
  (* the reconnected pair came alive, so its backoff budget restarted *)
  Option.iter
    (fun ctl -> checki "backoff reset on genuine recovery" 1 (C.Fullmesh.backoff_resets ctl))
    ctl

(* A factory's instances share one controller, so a state serves the one
   factory it was first bound to: a second factory is refused. *)
let test_fullmesh_state_serves_one_factory () =
  let engine, topo, client_ep, _, _, setup = make () in
  let state = C.Fullmesh.mesh_state (fullmesh_config topo) in
  for _ = 1 to 2 do
    ignore (C.Factory.start setup.Setup.pm (C.Fullmesh.per_conn state) : C.Factory.t)
  done;
  ignore (connect topo client_ep : Connection.t);
  Alcotest.check_raises "second factory"
    (Invalid_argument "Fullmesh.per_conn: mesh_state already bound to another factory")
    (fun () -> run engine 100)

(* --- backup --------------------------------------------------------------------- *)

let test_backup_fails_over_on_rto wiring () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let failovers =
    start_backup wiring setup.Setup.pm
      {
        C.Backup.rto_threshold = Time.span_s 1;
        backup_sources = [ addr topo 1 ];
        backup_destination = Some (Ip.endpoint (saddr topo 1) 80);
        max_failovers = 8;
      }
  in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 20_000_000
    | _ -> ());
  (* primary becomes terrible at t=1 s *)
  Netem.loss_at engine (Time.add Time.zero (Time.span_s 1))
    (List.hd topo.Topology.paths).Topology.cable 0.30;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 20));
  checki "one failover" 1 (failovers ());
  (* the surviving subflow runs over path 1 *)
  (match Connection.subflows conn with
  | [ sf ] ->
      checkb "on backup path" true (Ip.equal (Subflow.flow sf).Ip.src.Ip.addr (addr topo 1))
  | l -> Alcotest.failf "expected 1 subflow, found %d" (List.length l));
  (* and the transfer kept making progress after the switch *)
  match !accepted with
  | Some sconn -> checkb "bytes keep flowing" true (Connection.bytes_received sconn > 2_000_000)
  | None -> Alcotest.fail "no server conn"

let test_backup_ignores_short_rtos wiring () =
  let engine, topo, client_ep, _, _, setup = make () in
  let failovers =
    start_backup wiring setup.Setup.pm
      {
        C.Backup.rto_threshold = Time.span_s 30 (* absurdly high: never trips *);
        backup_sources = [ addr topo 1 ];
        backup_destination = None;
        max_failovers = 8;
      }
  in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 2_000_000
    | _ -> ());
  Netem.loss_at engine (Time.add Time.zero (Time.span_s 1))
    (List.hd topo.Topology.paths).Topology.cable 0.30;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 15));
  checki "no failover below threshold" 0 (failovers ());
  checki "still one subflow" 1 (List.length (Connection.subflows conn))

(* Repeated handover: paths die one after another; each established backup
   puts its source back on the shelf, so the controller can keep roaming. *)
let make3 () =
  let engine = Engine.create ~seed:77 () in
  let topo = Topology.parallel_paths engine ~n:3 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn -> accepted := Some conn);
  let setup = Setup.attach client_ep in
  (engine, topo, client_ep, setup)

(* Kill only the client->server direction: data on the path is lost (so the
   sender's RTO grows), but the reverse links stay routable — like a radio
   that can still hear the tower it can no longer reach. *)
let kill_path engine topo i at_s =
  ignore
    (Engine.at engine
       (Time.add Time.zero (Time.span_s at_s))
       (fun () ->
         Link.set_loss (List.nth topo.Topology.paths i).Topology.cable.Topology.fwd 1.0))

let test_backup_roams_across_handovers wiring () =
  let engine, topo, client_ep, setup = make3 () in
  let failovers =
    start_backup wiring setup.Setup.pm
      {
        C.Backup.rto_threshold = Time.span_s 1;
        backup_sources = [ addr topo 1; addr topo 2 ];
        backup_destination = None;
        max_failovers = 8;
      }
  in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 50_000_000
    | _ -> ());
  kill_path engine topo 0 1;
  kill_path engine topo 1 8;
  kill_path engine topo 2 15;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 21));
  (* the third failover needs addr 1 back on the shelf: replenished when its
     subflow established after failover #1 *)
  checkb "kept roaming across successive path deaths" true
    (failovers () >= 3);
  checkb "never stormed past the cap" true (failovers () <= 8)

let test_backup_failover_cap wiring () =
  let engine, topo, client_ep, setup = make3 () in
  let failovers =
    start_backup wiring setup.Setup.pm
      {
        C.Backup.rto_threshold = Time.span_s 1;
        backup_sources = [ addr topo 1; addr topo 2 ];
        backup_destination = None;
        max_failovers = 2;
      }
  in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 50_000_000
    | _ -> ());
  kill_path engine topo 0 1;
  kill_path engine topo 1 8;
  kill_path engine topo 2 15;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 25));
  (* timeouts keep firing after every path is dead, but the budget holds *)
  checki "stops exactly at the cap" 2 (failovers ())

(* --- stream --------------------------------------------------------------------- *)

let stream_config topo =
  C.Stream.default_config ~spare_source:(addr topo 1)
    ~spare_destination:(Ip.endpoint (saddr topo 1) 80)
    ()

let test_stream_opens_spare_when_behind () =
  let engine, topo, client_ep, _, _, setup = make ~losses:[ 0.30; 0.0 ] () in
  let ctl = C.Stream.start setup.Setup.pm (stream_config topo) in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established ->
        ignore (Smapp_apps.Stream_app.sender conn ~blocks:10 ())
    | _ -> ());
  Engine.run_until engine (Time.add Time.zero (Time.span_s 20));
  checkb "progress checks ran" true (C.Stream.checks_performed ctl >= 5);
  checki "spare subflow opened" 1 (C.Stream.second_subflows_opened ctl)

let test_stream_stays_single_path_when_clean () =
  let engine, topo, client_ep, _, _, setup = make () in
  let ctl = C.Stream.start setup.Setup.pm (stream_config topo) in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> ignore (Smapp_apps.Stream_app.sender conn ~blocks:10 ())
    | _ -> ());
  Engine.run_until engine (Time.add Time.zero (Time.span_s 20));
  checki "no spare needed" 0 (C.Stream.second_subflows_opened ctl);
  checki "no subflow closed" 0 (C.Stream.subflows_closed ctl)

let test_stream_closes_high_rto_subflow () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let ctl = C.Stream.start setup.Setup.pm (stream_config topo) in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> ignore (Smapp_apps.Stream_app.sender conn ~blocks:30 ())
    | _ -> ());
  (* heavy loss from t=2 s: RTO on the initial subflow backs off beyond 1 s *)
  Netem.loss_at engine (Time.add Time.zero (Time.span_s 2))
    (List.hd topo.Topology.paths).Topology.cable 0.5;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 40));
  checkb "underperforming subflow closed" true (C.Stream.subflows_closed ctl >= 1);
  checki "spare opened" 1 (C.Stream.second_subflows_opened ctl);
  match !accepted with
  | Some sconn ->
      checkb "stream kept flowing" true (Connection.bytes_received sconn > 20 * 64 * 1024)
  | None -> Alcotest.fail "no server conn"

(* The spare's own radio hands over: the spare subflow dies with an error,
   and the controller is allowed to open a replacement — within its budget. *)
let test_stream_reopens_spare_after_error () =
  let engine, topo, client_ep, _, accepted, setup = make ~losses:[ 0.30; 0.0 ] () in
  let ctl =
    (* rto_limit out of the way: these tests isolate the progress-check path *)
    C.Stream.start setup.Setup.pm
      { (stream_config topo) with C.Stream.rto_limit = Time.span_s 60 }
  in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established ->
        ignore (Smapp_apps.Stream_app.sender conn ~blocks:30 ())
    | _ -> ());
  (* t=10 s: the spare (the only non-initial subflow) dies with a reset *)
  ignore
    (Engine.after engine (Time.span_s 10) (fun () ->
         match !accepted with
         | Some sconn -> (
             match
               List.find_opt
                 (fun sf -> not sf.Subflow.is_initial)
                 (Connection.subflows sconn)
             with
             | Some sf -> Connection.remove_subflow sconn sf
             | None -> Alcotest.fail "spare was never opened")
         | None -> Alcotest.fail "no server conn"));
  Engine.run_until engine (Time.add Time.zero (Time.span_s 20));
  checkb "spare re-opened after its radio died" true
    (C.Stream.second_subflows_opened ctl >= 2);
  checkb "within the budget" true (C.Stream.second_subflows_opened ctl <= 4)

let test_stream_spare_open_cap () =
  let engine, topo, client_ep, _, accepted, setup = make ~losses:[ 0.30; 0.0 ] () in
  let ctl =
    C.Stream.start setup.Setup.pm
      {
        (stream_config topo) with
        C.Stream.max_spare_opens = 1;
        rto_limit = Time.span_s 60;
      }
  in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established ->
        ignore (Smapp_apps.Stream_app.sender conn ~blocks:30 ())
    | _ -> ());
  ignore
    (Engine.after engine (Time.span_s 10) (fun () ->
         match !accepted with
         | Some sconn -> (
             match
               List.find_opt
                 (fun sf -> not sf.Subflow.is_initial)
                 (Connection.subflows sconn)
             with
             | Some sf -> Connection.remove_subflow sconn sf
             | None -> Alcotest.fail "spare was never opened")
         | None -> Alcotest.fail "no server conn"));
  Engine.run_until engine (Time.add Time.zero (Time.span_s 20));
  (* the stream stays behind for the rest of the run, but the budget is spent *)
  checki "no reopen past the cap" 1 (C.Stream.second_subflows_opened ctl);
  checki "back to a single path" 1 (List.length (Connection.subflows conn))

(* --- refresh -------------------------------------------------------------------- *)

let test_refresh_replaces_slowest () =
  let engine = Engine.create ~seed:123 () in
  let topo = Topology.ecmp_fabric engine ~salt:123 ~n:4 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  Endpoint.listen server_ep ~port:80 (fun conn -> Connection.set_receive conn (fun _ -> ()));
  let setup = Setup.attach client_ep in
  let ctl = C.Refresh.start setup.Setup.pm (C.Refresh.default_config ~subflows:5 ()) in
  let client_addr = List.hd (Host.addresses topo.Topology.client) in
  let server_addr = List.hd (Host.addresses topo.Topology.server) in
  let conn = Endpoint.connect client_ep ~src:client_addr ~dst:(Ip.endpoint server_addr 80) () in
  Smapp_apps.Bulk.sender conn ~bytes:30_000_000;
  Engine.run_until engine (Time.add Time.zero (Time.span_s 15));
  checkb "polled at least 3 times" true (C.Refresh.polls ctl >= 3);
  checkb "refreshed at least once" true (C.Refresh.refreshes ctl >= 1);
  checki "keeps 5 subflows" 5 (List.length (Connection.subflows conn))

let fullmesh_tests wiring =
  [
    Alcotest.test_case "builds mesh" `Quick (test_fullmesh_builds_mesh wiring);
    Alcotest.test_case "reconnects after rst" `Quick
      (test_fullmesh_reconnects_after_rst wiring);
    Alcotest.test_case "backoff reset on recovery" `Quick
      (test_fullmesh_backoff_reset_on_recovery wiring);
  ]

let backup_tests wiring =
  [
    Alcotest.test_case "fails over on rto" `Quick (test_backup_fails_over_on_rto wiring);
    Alcotest.test_case "respects threshold" `Quick (test_backup_ignores_short_rtos wiring);
    Alcotest.test_case "roams across handovers" `Quick
      (test_backup_roams_across_handovers wiring);
    Alcotest.test_case "failover cap" `Quick (test_backup_failover_cap wiring);
  ]

let () =
  Alcotest.run "controllers"
    [
      ("ndiffports", [ Alcotest.test_case "opens n" `Quick test_ndiffports_opens_n ]);
      ( "fullmesh",
        fullmesh_tests Start
        @ [
            Alcotest.test_case "tracks interfaces" `Quick test_fullmesh_tracks_interfaces;
            Alcotest.test_case "suppresses stale reconnect" `Quick
              test_fullmesh_suppresses_stale_reconnect;
          ] );
      ( "fullmesh per conn",
        fullmesh_tests Per_conn
        @ [
            Alcotest.test_case "state serves one factory" `Quick
              test_fullmesh_state_serves_one_factory;
          ] );
      ("backup", backup_tests Start);
      ("backup per conn", backup_tests Per_conn);
      ( "stream",
        [
          Alcotest.test_case "opens spare when behind" `Quick test_stream_opens_spare_when_behind;
          Alcotest.test_case "single path when clean" `Quick test_stream_stays_single_path_when_clean;
          Alcotest.test_case "closes high-rto subflow" `Quick test_stream_closes_high_rto_subflow;
          Alcotest.test_case "reopens spare after error" `Quick
            test_stream_reopens_spare_after_error;
          Alcotest.test_case "spare open cap" `Quick test_stream_spare_open_cap;
        ] );
      ("refresh", [ Alcotest.test_case "replaces slowest" `Quick test_refresh_replaces_slowest ]);
    ]
