open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Pm_lib = Smapp_core.Pm_lib
module Kernel_pm = Smapp_core.Kernel_pm
module Channel = Smapp_netlink.Channel
module Fullmesh = Smapp_controllers.Fullmesh
module Backup = Smapp_controllers.Backup
module Conn_view = Smapp_controllers.Conn_view
module Workload = Smapp_workload.Workload

type controller = [ `Fullmesh | `Backup ]

let controller_name = function `Fullmesh -> "fullmesh" | `Backup -> "backup"

type convergence_result = {
  controller : string;
  drop : float;
  seed : int;
  converged_after_s : float option;
  duplicate_subflows : int;
  kernel_subflows : int;
  view_subflows : int;
  retries : int;
  resyncs : int;
  gaps_detected : int;
  dropped : int;
  duplicated : int;
  overflowed : int;
  duplicate_commands : int;
}

(* ids of the kernel connection's established subflows *)
let kernel_sub_ids conn =
  List.filter_map
    (fun sf -> if Subflow.established sf then Some sf.Subflow.id else None)
    (Connection.subflows conn)
  |> List.sort compare

let view_sub_ids view token =
  match Conn_view.find view token with
  | None -> []
  | Some c -> List.sort compare (List.map (fun s -> s.Conn_view.sv_id) c.Conn_view.cv_subs)

(* duplicate mesh entries: subflows sharing a four-tuple *)
let duplicate_four_tuples conn =
  let tuples =
    List.map
      (fun sf ->
        let f = Subflow.flow sf in
        (Ip.to_int f.Ip.src.Ip.addr, f.Ip.src.Ip.port, Ip.to_int f.Ip.dst.Ip.addr, f.Ip.dst.Ip.port))
      (Connection.subflows conn)
  in
  List.length tuples - List.length (List.sort_uniq compare tuples)

let run_convergence ?(controller = `Fullmesh) ?(seed = 42) ?(drop = 0.05)
    ?(duration = 12.0) () =
  let ctrl = controller in
  let crash_at = 5.0 and restart_at = 5.5 in
  let pair = Harness.make_pair ~seed () in
  let engine = pair.Harness.engine in
  let profile = { Channel.reliable with Channel.drop; buffer = 64 } in
  let setup = Setup.attach ~profile pair.Harness.client_ep in
  let view =
    match ctrl with
    | `Fullmesh ->
        Fullmesh.view
          (Fullmesh.start setup.Setup.pm
             (Fullmesh.default_config
                ~local_addresses:
                  [ Harness.client_addr pair 0; Harness.client_addr pair 1 ]
                ()))
    | `Backup ->
        (* the backup controller keeps no public view: audit through an
           independent Conn_view on the same library *)
        let v = Conn_view.create setup.Setup.pm () in
        ignore
          (Backup.start setup.Setup.pm
             (Backup.default_config ~backup_sources:[ Harness.client_addr pair 1 ] ()));
        v
  in
  Endpoint.listen pair.Harness.server_ep ~port:80 Smapp_apps.Keepalive.echo_peer;
  let conn =
    Endpoint.connect pair.Harness.client_ep
      ~src:(Harness.client_addr pair 0)
      ~dst:(Harness.server_endpoint pair 0 80)
      ()
  in
  ignore
    (Smapp_apps.Keepalive.start conn ~message_bytes:1000 ~interval:(Time.span_ms 250)
       ~duration:(Time.span_of_float_s (duration +. 1.0))
       ());
  let at seconds f =
    ignore (Engine.at engine (Time.add Time.zero (Time.span_of_float_s seconds)) f)
  in
  at crash_at (fun () -> Channel.set_user_up setup.Setup.channel false);
  at restart_at (fun () -> Channel.set_user_up setup.Setup.channel true);
  (* sample view-vs-kernel agreement; convergence = the instant after the
     restart from which the two stay equal to the end of the run *)
  let converged_at = ref None in
  ignore
    (Engine.every engine (Time.span_ms 10) (fun () ->
         let now_s = Time.to_float_s (Engine.now engine) in
         if now_s >= restart_at then begin
           let equal =
             kernel_sub_ids conn = view_sub_ids view (Connection.local_token conn)
           in
           match (equal, !converged_at) with
           | true, None -> converged_at := Some now_s
           | false, Some _ -> converged_at := None
           | _ -> ()
         end;
         `Continue));
  Harness.run_seconds engine duration;
  let stats = Channel.stats setup.Setup.channel in
  {
    controller = controller_name ctrl;
    drop;
    seed;
    converged_after_s =
      Option.map (fun t -> t -. restart_at) !converged_at;
    duplicate_subflows = duplicate_four_tuples conn;
    kernel_subflows = List.length (kernel_sub_ids conn);
    view_subflows = List.length (view_sub_ids view (Connection.local_token conn));
    retries = Pm_lib.retries setup.Setup.pm;
    resyncs = Pm_lib.resyncs setup.Setup.pm;
    gaps_detected = Pm_lib.gaps_detected setup.Setup.pm;
    dropped = stats.Channel.s_dropped;
    duplicated = stats.Channel.s_duplicated;
    overflowed = stats.Channel.s_overflowed;
    duplicate_commands = Kernel_pm.duplicate_commands setup.Setup.kernel_pm;
  }

let run_grid ?pool ?(seeds = Harness.seeds 5) ?(drops = [ 0.0; 0.01; 0.05; 0.10 ]) () =
  let cells =
    List.concat_map
      (fun controller ->
        List.concat_map
          (fun drop -> List.map (fun seed -> (controller, drop, seed)) seeds)
          drops)
      [ `Fullmesh; `Backup ]
  in
  Smapp_par.Sweep.map ?pool
    (fun (controller, drop, seed) -> run_convergence ~controller ~seed ~drop ())
    cells

type watchdog_result = {
  w_fallback_active : bool;
  w_fallbacks : int;
  w_handbacks : int;
  w_kernel_subflows : int;
  w_bytes_at_loss : int;
  w_bytes_final : int;
}

let run_watchdog ?(seed = 42) () =
  let duration = 15.0 in
  let pair = Harness.make_pair ~seed () in
  let engine = pair.Harness.engine in
  let setup = Setup.attach pair.Harness.client_ep in
  ignore
    (Fullmesh.start setup.Setup.pm
       (Fullmesh.default_config ~local_addresses:[ Harness.client_addr pair 0 ] ()));
  Pm_lib.enable_keepalive setup.Setup.pm ~interval:(Time.span_ms 50);
  Kernel_pm.enable_watchdog setup.Setup.kernel_pm
    { Kernel_pm.wd_interval = Time.span_ms 100; wd_missed_threshold = 3 };
  Endpoint.listen pair.Harness.server_ep ~port:80 Smapp_apps.Keepalive.echo_peer;
  let conn =
    Endpoint.connect pair.Harness.client_ep
      ~src:(Harness.client_addr pair 0)
      ~dst:(Harness.server_endpoint pair 0 80)
      ()
  in
  ignore
    (Smapp_apps.Keepalive.start conn ~message_bytes:2000 ~interval:(Time.span_ms 100)
       ~duration:(Time.span_of_float_s (duration +. 1.0))
       ());
  let bytes_at_loss = ref 0 in
  ignore
    (Engine.at engine
       (Time.add Time.zero (Time.span_s 5))
       (fun () ->
         (* the daemon dies for good: only the in-kernel watchdog is left *)
         Channel.set_user_up setup.Setup.channel false;
         bytes_at_loss := Connection.bytes_acked conn));
  Harness.run_seconds engine duration;
  {
    w_fallback_active = Kernel_pm.fallback_active setup.Setup.kernel_pm;
    w_fallbacks = Kernel_pm.fallbacks setup.Setup.kernel_pm;
    w_handbacks = Kernel_pm.handbacks setup.Setup.kernel_pm;
    w_kernel_subflows = List.length (kernel_sub_ids conn);
    w_bytes_at_loss = !bytes_at_loss;
    w_bytes_final = Connection.bytes_acked conn;
  }

(* === data-plane chaos ======================================================== *)

type dataplane_scenario = [ `Mobile | `Degrade | `Dualfade | `Regionfail ]

let dataplane_scenario_name = function
  | `Mobile -> "mobile"
  | `Degrade -> "degrade"
  | `Dualfade -> "dualfade"
  | `Regionfail -> "regionfail"

type dataplane_result = {
  dp_scenario : string;
  dp_seed : int;
  dp_bytes_sent : int;
  dp_bytes_received : int;
  dp_completed : bool;
  dp_byte_exact : bool;
  dp_completed_at_s : float option;
  dp_handovers : int;
  dp_failovers : int;
  dp_subflow_requests : int;
  dp_reconnects : int;
  dp_stale_suppressed : int;
  dp_cap_ok : bool;
  dp_max_stall_s : float;
  dp_stall_bound_s : float;
  dp_live_ok : bool;
  dp_link_drops : int;
  dp_goodput_bps : float;
}

let dataplane_invariants_ok r =
  r.dp_completed && r.dp_byte_exact && r.dp_live_ok && r.dp_cap_ok

(* Graceful-degradation audit, shared by the three scenarios: a fixed bulk
   transfer under a scripted storm of link modulation and handover, sampled
   every 50 ms.

   Invariants checked (per ISSUE 6):
   - byte-exactness: the server receives exactly the bytes the client sent;
   - liveness: whenever at least one path is usable (client NIC up, cable
     up in both directions), app-level progress stalls no longer than the
     scenario's bound — failover latency included;
   - bounded churn: controller reconnects/failovers never exceed their
     configured caps. *)
let run_dataplane_classic ~scenario ~seed =
  let total, duration, stall_bound =
    match scenario with
    | `Mobile -> (12_000_000, 30.0, 3.0)
    | `Degrade -> (8_000_000, 25.0, 5.0)
    | `Dualfade -> (2_000_000, 25.0, 5.0)
  in
  let pair =
    match scenario with
    | `Mobile -> Harness.make_pair ~seed ()
    | `Degrade ->
        Harness.make_pair ~seed
          ~rates_bps:[ 20_000_000.0; 10_000_000.0 ]
          ~delays:[ Time.span_ms 10; Time.span_ms 30 ]
          ()
    | `Dualfade ->
        Harness.make_pair ~seed ~rates_bps:[ 30_000_000.0; 30_000_000.0 ] ()
  in
  let engine = pair.Harness.engine in
  let topo = pair.Harness.topo in
  let cable i = (List.nth topo.Topology.paths i).Topology.cable in
  let setup = Setup.attach pair.Harness.client_ep in
  (* controller per scenario: the mesh controllers ride the handover churn,
     break-before-make owns the dying primary *)
  let fullmesh_config =
    Fullmesh.default_config
      ~local_addresses:[ Harness.client_addr pair 0; Harness.client_addr pair 1 ]
      ()
  in
  let ctl =
    match scenario with
    | `Mobile | `Dualfade -> `F (Fullmesh.start setup.Setup.pm fullmesh_config)
    | `Degrade ->
        let config =
          {
            (Backup.default_config ~backup_sources:[ Harness.client_addr pair 1 ] ())
            with
            Backup.backup_destination = Some (Harness.server_endpoint pair 1 80);
          }
        in
        `B (Backup.start setup.Setup.pm config)
  in
  (* scenario-specific data-plane storm *)
  let mobility =
    match scenario with
    | `Mobile ->
        ignore (Linkmodel.wifi engine (cable 0));
        ignore (Linkmodel.lte engine (cable 1));
        Some
          (Linkmodel.Mobility.start engine
             ~nics:(Host.nics topo.Topology.client)
             {
               Linkmodel.Mobility.first_handover = Time.span_s 1;
               ho_period = Time.span_ms 1500;
               break_for = Time.span_ms 250;
               max_handovers = Some 4;
             })
    | `Degrade ->
        (* primary fades in steps, then the cable is cut (in-flight packets
           die with it) *)
        ignore
          (Linkmodel.play engine ~start:(Time.span_s 1) (cable 0)
             [
               Linkmodel.segment ~rate_bps:10_000_000.0 ~hold:(Time.span_s 1) ();
               Linkmodel.segment ~rate_bps:4_000_000.0 ~loss:0.05
                 ~hold:(Time.span_s 1) ();
               Linkmodel.segment ~rate_bps:1_000_000.0 ~loss:0.15
                 ~hold:(Time.span_s 1) ();
             ]);
        Netem.down_at engine (Time.add Time.zero (Time.span_s 4)) (cable 0);
        None
    | `Dualfade ->
        (* one Gilbert-Elliott chain drives both cables: fully correlated
           burst fades *)
        ignore
          (Linkmodel.burst_loss engine [ cable 0; cable 1 ] Linkmodel.default_ge);
        None
  in
  (* bulk transfer client -> server; the server is a pure sink *)
  let server_conn = ref None in
  Endpoint.listen pair.Harness.server_ep ~port:80 (fun conn -> server_conn := Some conn);
  let conn =
    Endpoint.connect pair.Harness.client_ep
      ~src:(Harness.client_addr pair 0)
      ~dst:(Harness.server_endpoint pair 0 80)
      ()
  in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn total
    | _ -> ());
  (* liveness sampling *)
  let path_usable i =
    let p = List.nth topo.Topology.paths i in
    List.exists (Ip.equal p.Topology.client_addr) (Host.addresses topo.Topology.client)
    && Link.is_up p.Topology.cable.Topology.fwd
    && Link.is_up p.Topology.cable.Topology.back
  in
  let sample_dt = 0.05 in
  let last_bytes = ref 0 in
  let stall = ref 0.0 in
  let max_stall = ref 0.0 in
  let completed_at = ref None in
  ignore
    (Engine.every engine (Time.span_ms 50) (fun () ->
         (match !server_conn with
         | Some sconn ->
             let b = Connection.bytes_received sconn in
             if !completed_at = None then
               if b >= total then
                 completed_at := Some (Time.to_float_s (Engine.now engine))
               else if b > !last_bytes then begin
                 last_bytes := b;
                 stall := 0.0
               end
               else if path_usable 0 || path_usable 1 then begin
                 (* a path is there and nothing moves: the clock on the
                    controller's failover latency is running *)
                 stall := !stall +. sample_dt;
                 if !stall > !max_stall then max_stall := !stall
               end
               else stall := 0.0 (* total outage: nobody could make progress *)
         | None -> ());
         `Continue));
  Harness.run_seconds engine duration;
  let received =
    match !server_conn with Some sconn -> Connection.bytes_received sconn | None -> 0
  in
  let handovers =
    match mobility with Some m -> Linkmodel.Mobility.handovers m | None -> 0
  in
  let failovers, requests, reconnects, stale, cap_ok =
    match ctl with
    | `F f ->
        (* pair budget: |locals| x |remote endpoints| = 2 x 2 *)
        let cap = Fullmesh.max_reconnect_attempts * 4 in
        ( 0,
          Fullmesh.subflows_created f,
          Fullmesh.reconnects_scheduled f,
          Fullmesh.stale_reconnects_suppressed f,
          Fullmesh.reconnects_scheduled f <= cap )
    | `B b ->
        let cap = (Backup.default_config ~backup_sources:[] ()).Backup.max_failovers in
        (Backup.failovers b, 0, 0, 0, Backup.failovers b <= cap)
  in
  let link_drops =
    List.fold_left
      (fun acc i ->
        acc
        + (Link.stats (cable i).Topology.fwd).Link.dropped
        + (Link.stats (cable i).Topology.back).Link.dropped)
      0 [ 0; 1 ]
  in
  let elapsed = match !completed_at with Some t -> t | None -> duration in
  {
    dp_scenario = dataplane_scenario_name scenario;
    dp_seed = seed;
    dp_bytes_sent = total;
    dp_bytes_received = received;
    dp_completed = received >= total;
    dp_byte_exact = received = total;
    dp_completed_at_s = !completed_at;
    dp_handovers = handovers;
    dp_failovers = failovers;
    dp_subflow_requests = requests;
    dp_reconnects = reconnects;
    dp_stale_suppressed = stale;
    dp_cap_ok = cap_ok;
    dp_max_stall_s = !max_stall;
    dp_stall_bound_s = stall_bound;
    dp_live_ok = !max_stall <= stall_bound;
    dp_link_drops = link_drops;
    dp_goodput_bps = float_of_int received *. 8.0 /. elapsed;
  }

(* Region outage over the many-connection workload fabric — the one
   data-plane scenario whose faults are host-local (NIC up/down observed
   by [Host.deliver] on the destination shard), so it runs under any
   shard count and is the non-vacuous subject of the chaos-under-shards
   byte-identity gate. The first half of the clients — a "region", a
   pure function of the config, not of the partition — lose their path-0
   NIC from 0.3 s to 1.8 s; every connection's break-before-make backup
   controller must fail over to path 1 and the transfer set must still
   complete exactly. *)
let run_regionfail ~shards ~seed =
  let conns = 16 and flow_bytes = 250_000 in
  let stall_bound = 8.0 in
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = 40.0;
      flow_dist = Workload.Fixed flow_bytes;
      controller = `Backup;
      clients = 4;
      servers = 2;
      paths = 2;
      seed;
      shards;
    }
  in
  let outage_start = Time.add Time.zero (Time.span_ms 300) in
  let outage_end = Time.add Time.zero (Time.span_ms 1800) in
  let perturb (fabric : Topology.fabric) =
    let n = Array.length fabric.Topology.mm_clients in
    Array.iteri
      (fun i host ->
        if i < n / 2 then begin
          let engine = Host.engine host in
          let set up () =
            match Host.find_nic host fabric.Topology.mm_client_addrs.(i).(0) with
            | Some nic -> Host.set_nic_up nic up
            | None -> ()
          in
          ignore (Engine.at engine outage_start (set false));
          ignore (Engine.at engine outage_end (set true))
        end)
      fabric.Topology.mm_clients
  in
  let r = Workload.run ~perturb config in
  let sent = conns * flow_bytes in
  let received = r.Workload.bytes_total in
  let completed = r.Workload.completed = r.Workload.launched in
  let max_fct = List.fold_left max 0.0 r.Workload.fcts in
  let elapsed = r.Workload.sim_duration_s in
  (* per-connection break-before-make cap (Backup.default_config) *)
  let cap = conns * 8 in
  {
    dp_scenario = "regionfail";
    dp_seed = seed;
    dp_bytes_sent = sent;
    dp_bytes_received = received;
    dp_completed = completed;
    dp_byte_exact = received = sent;
    dp_completed_at_s = (if completed then Some elapsed else None);
    dp_handovers = 0;
    dp_failovers = r.Workload.failovers;
    dp_subflow_requests = 0;
    dp_reconnects = 0;
    dp_stale_suppressed = 0;
    (* the fault must actually bite: at least one failover, and churn
       bounded by the controllers' per-connection caps *)
    dp_cap_ok = r.Workload.failovers >= 1 && r.Workload.failovers <= cap;
    dp_max_stall_s = max_fct;
    dp_stall_bound_s = stall_bound;
    dp_live_ok = max_fct <= stall_bound;
    dp_link_drops = 0;
    dp_goodput_bps =
      (if elapsed > 0.0 then float_of_int received *. 8.0 /. elapsed else 0.0);
  }

let run_dataplane ?(scenario = `Mobile) ?(seed = 42) ?(shards = 1) () =
  match scenario with
  | `Regionfail -> run_regionfail ~shards ~seed
  | (`Mobile | `Degrade | `Dualfade) as scenario ->
      (* duplex-spanning link modulation and in-flight kills make these
         single-engine by construction; [shards] is ignored *)
      run_dataplane_classic ~scenario ~seed

let run_dataplane_grid ?pool ?(scenarios = [ `Mobile; `Degrade; `Dualfade; `Regionfail ])
    ?(shards = 1) () =
  let cells =
    List.concat_map (fun sc -> List.map (fun seed -> (sc, seed)) (Harness.seeds 3)) scenarios
  in
  Smapp_par.Sweep.map ?pool
    (fun (scenario, seed) -> run_dataplane ~scenario ~seed ~shards ())
    cells
