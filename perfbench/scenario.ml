(* Untraced, [Prof] is off and each benchmark frame costs one atomic load,
   like the program's own frames; the controller wrappers, host taps and
   lane timers exist only in traced runs. *)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Workload = Smapp_workload.Workload
module Setup = Smapp_core.Setup
module Pm_lib = Smapp_core.Pm_lib
module Channel = Smapp_netlink.Channel
module Factory = Smapp_controllers.Factory
module Fullmesh = Smapp_controllers.Fullmesh
module Refresh = Smapp_controllers.Refresh
module Bulk = Smapp_apps.Bulk
module Lanes = Smapp_par.Lanes
module Prof = Smapp_obs.Prof
module Metrics = Smapp_obs.Metrics

let now = Clock.now

type ecmp = {
  e_seed : int;
  e_transfers : int;
  e_bytes : int;
  e_loss : float;
  e_subflows : int;
}

type shape = Fabric of Workload.config | Ecmp of ecmp

let workloads = [ "bulk_fabric"; "conn_churn"; "lossy_ecmp"; "bulk_sharded" ]

(* Sizes keep one repetition to a few seconds, so that a run can take the
   median of several. README.md gives the reason for each shape. *)
let bulk ~seed =
  {
    Workload.default_config with
    Workload.conns = 500;
    arrival_rate = 500.0;
    flow_dist = Workload.Fixed 200_000;
    seed;
  }

let shape name ~seed =
  match name with
  | "bulk_fabric" -> Fabric (bulk ~seed)
  | "bulk_sharded" -> Fabric { (bulk ~seed) with Workload.shards = 2 }
  | "conn_churn" ->
      Fabric
        {
          Workload.default_config with
          Workload.conns = 2000;
          arrival_rate = 1000.0;
          flow_dist = Workload.Fixed 4_000;
          paths = 4;
          seed;
        }
  | "lossy_ecmp" ->
      Ecmp
        { e_seed = seed; e_transfers = 12; e_bytes = 10_000_000; e_loss = 0.002; e_subflows = 5 }
  | _ -> invalid_arg ("Scenario.shape: unknown workload " ^ name)

type ledger = { wall_s : float; prof_wall_s : float; dispatch_s : float; framed_s : float }

let reconciles l =
  let slack = (0.05 *. l.wall_s) +. 1e-3 in
  Float.abs (l.prof_wall_s -. l.wall_s) <= slack
  && l.framed_s >= -.slack
  && l.dispatch_s -. l.framed_s >= -.slack
  && l.wall_s -. l.dispatch_s >= -.slack

type outcome = {
  result : Workload.result;
  setup_s : float;
  run_s : float;
  receivers_ok : bool;
  layers : (string * string * float) list;
  ledger : ledger option;
}

(* --- set-up timing -------------------------------------------------------- *)

let setup_names =
  [| "setup.topology_s"; "setup.endpoints_s"; "setup.control_plane_s"; "setup.schedule_s" |]

let topology = 0
let endpoints = 1
let control_plane = 2
let schedule = 3

let timed parts i f =
  let t = now () in
  let r = f () in
  parts.(i) <- parts.(i) +. (now () -. t);
  r

(* --- tracing -------------------------------------------------------------- *)

(* Traced-run state. A per-shard or per-host cell is written only by the
   lane that runs that shard. *)
type probe = {
  prof : Prof.Scope.t array;
  scopes : Metrics.Scope.t option array;
  busy : float array; (* this window's seconds, per shard *)
  lane_busy : float array; (* the whole run's, per lane *)
  mutable windows : int;
  mutable barrier_wait : float; (* summed over lanes *)
  mutable tx : int array; (* packets transmitted, per host *)
}

let make_probe ~shards =
  {
    prof = Array.init shards (fun _ -> Prof.Scope.create ());
    scopes = Array.make shards None;
    busy = Array.make shards 0.0;
    lane_busy = Array.make shards 0.0;
    windows = 0;
    barrier_wait = 0.0;
    tx = [||];
  }

let tap p hosts =
  p.tx <- Array.make (List.length hosts) 0;
  List.iteri (fun i h -> Host.add_tap h (fun _ -> p.tx.(i) <- p.tx.(i) + 1)) hosts

(* [Shard] gives each shard of a group a private metrics scope, installed
   only while its window runs: record it from inside the shard's events. *)
let claim probe shard =
  match probe with
  | Some p when Option.is_none p.scopes.(shard) ->
      p.scopes.(shard) <- Some (Metrics.Scope.current ())
  | _ -> ()

let frame label f =
  Prof.enter label;
  let r = f () in
  Prof.exit_frame ();
  r

let framed_events (ev : Factory.events) =
  let cb f = frame "ctrl:callback" f in
  {
    Factory.on_established = (fun c -> cb (fun () -> ev.Factory.on_established c));
    on_sub_established = (fun c s -> cb (fun () -> ev.Factory.on_sub_established c s));
    on_sub_closed = (fun c s e -> cb (fun () -> ev.Factory.on_sub_closed c s e));
    on_timeout =
      (fun c ~sub_id ~rto ~count ->
        cb (fun () -> ev.Factory.on_timeout c ~sub_id ~rto ~count));
    on_closed = (fun c -> cb (fun () -> ev.Factory.on_closed c));
  }

(* Run [group] until every queue drains. Traced: inside per-shard profiling
   scopes under one root frame each, timing every window and lane. Lanes
   run shard [s] on lane [s mod domains]. *)
let drive probe pool group =
  let shards = Shard.shards group in
  match (probe, pool) with
  | None, None -> Shard.run group
  | None, Some pool -> Shard.run ~lanes:(fun f -> Lanes.run pool ~shards f) group
  | Some p, None ->
      Metrics.Scope.with_scope (Metrics.Scope.create ()) (fun () ->
          Prof.Scope.with_scope p.prof.(0) (fun () ->
              frame "bench:run" (fun () -> Shard.run group)))
  | Some p, Some pool ->
      let lanes = Lanes.domains pool in
      let window f =
        let t0 = now () in
        Lanes.run pool ~shards (fun s ->
            let t = now () in
            Prof.Scope.with_scope p.prof.(s) (fun () ->
                frame "shard:window" (fun () -> f s));
            p.busy.(s) <- now () -. t);
        let round = now () -. t0 in
        p.windows <- p.windows + 1;
        for lane = 0 to lanes - 1 do
          let busy = ref 0.0 in
          for s = 0 to shards - 1 do
            if s mod lanes = lane then busy := !busy +. p.busy.(s)
          done;
          p.lane_busy.(lane) <- p.lane_busy.(lane) +. !busy;
          p.barrier_wait <- p.barrier_wait +. (round -. !busy)
        done
      in
      Shard.run ~lanes:window group

(* What a workload knows about its own run, for the per-layer metrics. *)
type census = {
  c_launched : int;
  c_bytes : int; (* delivered by completed transfers *)
  c_subflows : int; (* client-side subflow establishments *)
  c_setups : Setup.t list;
  c_instances : int; (* per-connection controller instances *)
  c_refreshes : int;
}

type frame_sum = {
  mutable calls : int;
  mutable self_ns : float;
  mutable self_bytes : float;
  mutable total_ns : float;
  mutable total_bytes : float;
}

let sum_frames reports =
  let sums = Hashtbl.create 16 in
  let rec add (f : Prof.frame_stat) =
    let s =
      match Hashtbl.find_opt sums f.Prof.f_label with
      | Some s -> s
      | None ->
          let s =
            { calls = 0; self_ns = 0.0; self_bytes = 0.0; total_ns = 0.0; total_bytes = 0.0 }
          in
          Hashtbl.replace sums f.Prof.f_label s;
          s
    in
    s.calls <- s.calls + f.Prof.f_count;
    s.self_ns <- s.self_ns +. f.Prof.f_self_ns;
    s.self_bytes <- s.self_bytes +. f.Prof.f_self_bytes;
    s.total_ns <- s.total_ns +. f.Prof.f_total_ns;
    s.total_bytes <- s.total_bytes +. f.Prof.f_total_bytes;
    List.iter add f.Prof.f_children
  in
  List.iter (fun (r : Prof.report) -> List.iter add r.Prof.p_frames) reports;
  sums

let roots = [ "bench:run"; "shard:window" ]

let layer_metrics p ~group ~run_s ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~setup c =
  let reports =
    Array.to_list (Array.map (fun s -> Prof.Scope.with_scope s Prof.report) p.prof)
  in
  let frames = sum_frames reports in
  let get field label =
    match Hashtbl.find_opt frames label with Some s -> field s | None -> 0.0
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let calls = get (fun s -> float_of_int s.calls) in
  let self_ns label = ratio (get (fun s -> s.self_ns) label) (calls label) in
  let self_bytes label = ratio (get (fun s -> s.self_bytes) label) (calls label) in
  let over_roots field = List.fold_left (fun acc l -> acc +. get field l) 0.0 roots in
  let framed_ns =
    Hashtbl.fold
      (fun label s acc -> if List.mem label roots then acc else acc +. s.self_ns)
      frames 0.0
  in
  let classes = List.concat_map (fun (r : Prof.report) -> r.Prof.p_classes) reports in
  let class_sum f = List.fold_left (fun acc cl -> acc +. f cl) 0.0 classes in
  let timer f (cl : Prof.class_stat) = if cl.Prof.c_class = Prof.Timer then f cl else 0.0 in
  let events_of (cl : Prof.class_stat) = float_of_int cl.Prof.c_events in
  let ns_of (cl : Prof.class_stat) = cl.Prof.c_ns in
  let dispatch_ns = class_sum ns_of in
  let timer_events = class_sum (timer events_of) in
  let lane_total = Array.fold_left ( +. ) 0.0 p.lane_busy in
  let wall = if Shard.shards group > 1 then lane_total else run_s in
  let events = float_of_int (Shard.events_executed group) in
  let counter name =
    let handle = Metrics.counter name in
    float_of_int
      (Array.fold_left
         (fun acc scope ->
           match scope with
           | Some s -> acc + Metrics.Scope.with_scope s (fun () -> Metrics.value handle)
           | None -> acc)
         0 p.scopes)
  in
  let tx = float_of_int (Array.fold_left ( + ) 0 p.tx) in
  let conns = float_of_int c.c_launched in
  let over_setups f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 c.c_setups) in
  let segments = counter "tcp_segments_received_total" in
  let lane_mean = ratio lane_total (float_of_int (Array.length p.lane_busy)) in
  let lane_max = Array.fold_left Float.max 0.0 p.lane_busy in
  let ledger =
    {
      wall_s = wall;
      prof_wall_s = over_roots (fun s -> s.total_ns) *. 1e-9;
      dispatch_s = dispatch_ns *. 1e-9;
      framed_s = framed_ns *. 1e-9;
    }
  in
  let metrics =
    [
      ("sim.events", "count", events);
      ("sim.loop_ns_per_event", "ns", ratio ((wall *. 1e9) -. dispatch_ns) events);
      ("sim.timer_share", "ratio", ratio timer_events (class_sum events_of));
      ("sim.timer_ns_per_event", "ns", ratio (class_sum (timer ns_of)) timer_events);
      ("sim.alloc_bytes_per_event", "bytes", ratio (over_roots (fun s -> s.total_bytes)) events);
      ( "gc.minor_collections",
        "count",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        "count",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("shard.windows", "count", float_of_int p.windows);
      ("shard.events_per_window", "count", ratio events (float_of_int p.windows));
      ("shard.lane_busy_s", "s", lane_total);
      ("shard.barrier_wait_s", "s", p.barrier_wait);
      ("shard.lane_imbalance", "ratio", ratio lane_max lane_mean);
      ("link.deliveries", "count", calls "link:deliver");
      ("link.deliver_self_ns", "ns", self_ns "link:deliver");
      ("link.deliver_self_bytes", "bytes", self_bytes "link:deliver");
      ("link.drop_share", "ratio", Float.max 0.0 (ratio (tx -. segments) tx));
      ("host.tx_packets_per_mb", "count/MB", ratio tx (float_of_int c.c_bytes /. 1e6));
      ("tcp.segments_received", "count", segments);
      ("tcp.retransmit_share", "ratio", ratio (counter "tcp_retransmits_total") tx);
      ("tcp.rto_fired", "count", counter "tcp_rto_fired_total");
      ("mptcp.connect_ns", "ns", self_ns "mptcp:connect");
      ("mptcp.connect_bytes", "bytes", self_bytes "mptcp:connect");
      ("mptcp.subflows_per_conn", "count", ratio (float_of_int c.c_subflows) conns);
      ( "netlink.msgs_per_conn",
        "count",
        ratio
          (over_setups (fun s ->
               Channel.kernel_to_user_messages s.Setup.channel
               + Channel.user_to_kernel_messages s.Setup.channel))
          conns );
      ("netlink.crossing_self_ns", "ns", self_ns "netlink:crossing");
      ("netlink.crossing_self_bytes", "bytes", self_bytes "netlink:crossing");
      ( "pm.events_per_conn",
        "count",
        ratio (over_setups (fun s -> Pm_lib.events_received s.Setup.pm)) conns );
      ("pm.commands_per_conn", "count", ratio (counter "pm_commands_total") conns);
      ("pm.retries", "count", over_setups (fun s -> Pm_lib.retries s.Setup.pm));
      ("pm.dispatch_self_ns", "ns", self_ns "pm:dispatch");
      ("pm.dispatch_self_bytes", "bytes", self_bytes "pm:dispatch");
      ("ctrl.instances", "count", float_of_int c.c_instances);
      ("ctrl.callback_ns", "ns", self_ns "ctrl:callback");
      ("ctrl.refreshes", "count", float_of_int c.c_refreshes);
      ("app.callback_ns", "ns", self_ns "app:callback");
    ]
    @ setup
    @ [
        ( "trace.unattributed_share",
          "ratio",
          ratio (ledger.dispatch_s -. ledger.framed_s) wall );
      ]
  in
  (metrics, ledger)

(* --- shared run and result ------------------------------------------------ *)

(* Closes sort before starts at equal instants; unlaunched transfers
   (start < 0) are skipped. The same sweep as [Workload.run]'s. *)
let peak_of ~start_ns ~close_ns =
  let events = ref [] in
  Array.iter (fun t -> if t >= 0 then events := (t, 1) :: !events) start_ns;
  Array.iter (fun t -> if t >= 0 then events := (t, -1) :: !events) close_ns;
  let sorted =
    List.sort
      (fun (ta, da) (tb, db) ->
        let c = compare ta tb in
        if c <> 0 then c else compare da db)
      !events
  in
  let live = ref 0 and peak = ref 0 in
  List.iter
    (fun (_, d) ->
      live := !live + d;
      if !live > !peak then peak := !live)
    sorted;
  !peak

(* The simulated outputs, field for field as [Workload.run] reports them,
   so [Workload.digest] covers them. *)
let result_of group ~start_ns ~close_ns ~flow_bytes ~subflows_created ~failovers =
  let n = Array.length start_ns in
  let order =
    List.sort
      (fun a b ->
        let c = compare close_ns.(a) close_ns.(b) in
        if c <> 0 then c else compare a b)
      (List.filter (fun k -> close_ns.(k) >= 0) (List.init n (fun k -> k)))
  in
  let fct k = float_of_int (close_ns.(k) - start_ns.(k)) *. 1e-9 in
  {
    Workload.launched = n;
    completed = List.length order;
    peak_concurrent = peak_of ~start_ns ~close_ns;
    bytes_total = List.fold_left (fun acc k -> acc + flow_bytes.(k)) 0 order;
    fcts = List.map fct order;
    goodputs =
      List.filter_map
        (fun k ->
          let fct = fct k in
          if fct > 0.0 then Some (float_of_int (flow_bytes.(k) * 8) /. fct) else None)
        order;
    subflows_created;
    failovers;
    sim_duration_s =
      Time.span_to_float_s (Time.diff (Shard.last_event_time group) Time.zero);
    wall_s = 0.0;
    engine_events = Shard.events_executed group;
    events_per_sec = 0.0;
  }

(* The receiving application attaches when the server creates the
   connection: [Endpoint.listen]'s callback runs at establishment, and a
   server whose handshake ACK was lost is handed data before that, which
   a receiver installed there never counts. *)
let accept_with endpoint f =
  Endpoint.subscribe_new_connections endpoint (fun conn ->
      match Connection.role conn with
      | Connection.Server -> frame "app:callback" (fun () -> f conn)
      | Connection.Client -> ())

let receivers_complete receivers ~expect ~completed =
  List.for_all (fun r -> r.Bulk.received <= expect) receivers
  && List.length (List.filter (fun r -> r.Bulk.received = expect) receivers) >= completed

(* Run the built scenario to completion, then read back its outputs with
   [read]. Instrumentation is switched on only around the run. *)
let complete probe pool group ~parts ~t_setup ~receivers ~expect read =
  let setup_s = now () -. t_setup in
  let instrument on =
    if Option.is_some probe then begin
      Atomic.set Prof.enabled on;
      Atomic.set Metrics.enabled on
    end
  in
  let gc0 = Gc.quick_stat () in
  instrument true;
  let t0 = now () in
  drive probe pool group;
  let run_s = now () -. t0 in
  instrument false;
  let gc1 = Gc.quick_stat () in
  Option.iter Lanes.shutdown pool;
  let result, census = read () in
  let layers, ledger =
    match probe with
    | None -> ([], None)
    | Some p ->
        let setup = Array.to_list (Array.mapi (fun i n -> (n, "s", parts.(i))) setup_names) in
        let layers, ledger = layer_metrics p ~group ~run_s ~gc0 ~gc1 ~setup census in
        (layers, Some ledger)
  in
  {
    result;
    setup_s;
    run_s;
    receivers_ok =
      receivers_complete (receivers ()) ~expect ~completed:result.Workload.completed;
    layers;
    ledger;
  }

(* --- the fabric workloads --------------------------------------------------- *)

type client = {
  endpoint : Endpoint.t;
  addrs : Ip.t array;
  setup : Setup.t;
  mesh : Fullmesh.mesh_state;
  factory : Factory.t;
}

(* Construction mirrors [Workload.run] call for call, so every RNG split
   lands in the same order and the digests agree (test_perfbench checks). *)
let run_fabric ~traced (config : Workload.config) =
  let size =
    match config.Workload.flow_dist with
    | Workload.Fixed n -> n
    | Workload.Pareto _ | Workload.Exponential _ ->
        invalid_arg "Scenario: fabric workloads use fixed flow sizes"
  in
  if config.Workload.controller <> `Fullmesh then
    invalid_arg "Scenario: fabric workloads use the fullmesh controller";
  let shards = config.Workload.shards in
  let clients_n = config.Workload.clients and servers_n = config.Workload.servers in
  let probe = if traced then Some (make_probe ~shards) else None in
  let parts = Array.make (Array.length setup_names) 0.0 in
  let t_setup = now () in
  let group, pool, fabric =
    timed parts topology (fun () ->
        let group = Shard.create ~seed:config.Workload.seed ~shards () in
        let pool = if shards > 1 then Some (Lanes.create ~domains:shards) else None in
        let fabric =
          Topology.many_to_many_sharded group
            ~rates_bps:[ config.Workload.access_rate_bps ]
            ~delays:[ config.Workload.access_delay ] ~clients:clients_n ~servers:servers_n
            ~paths:config.Workload.paths ()
        in
        (group, pool, fabric))
  in
  let placement =
    Topology.partition ~shards ~clients:clients_n ~servers:servers_n
      ~paths:config.Workload.paths
  in
  Option.iter
    (fun p ->
      tap p (Array.to_list fabric.Topology.mm_clients @ Array.to_list fabric.Topology.mm_servers))
    probe;
  let receivers = Array.make servers_n [] in
  timed parts endpoints (fun () ->
      Array.iteri
        (fun j host ->
          let endpoint = Endpoint.of_host host in
          accept_with endpoint (fun conn ->
              claim probe (placement.Topology.pl_server j);
              receivers.(j) <- Bulk.receiver conn ~expect:size :: receivers.(j));
          Endpoint.listen endpoint ~port:config.Workload.port ignore)
        fabric.Topology.mm_servers);
  let clients =
    Array.init clients_n (fun i ->
        let endpoint =
          timed parts endpoints (fun () -> Endpoint.of_host fabric.Topology.mm_clients.(i))
        in
        timed parts control_plane (fun () ->
            let setup = Setup.attach endpoint in
            let addrs = fabric.Topology.mm_client_addrs.(i) in
            let mesh =
              Fullmesh.mesh_state
                (Fullmesh.default_config ~local_addresses:(Array.to_list addrs) ())
            in
            let make = Fullmesh.per_conn mesh in
            let make =
              if traced then fun f conn ->
                frame "ctrl:callback" (fun () -> framed_events (make f conn))
              else make
            in
            { endpoint; addrs; setup; mesh; factory = Factory.start setup.Setup.pm make }))
  in
  let n = config.Workload.conns in
  let start_ns = Array.make n 0 in
  let flow_client = Array.make n 0 in
  let flow_server = Array.make n 0 in
  let flow_bytes = Array.make n size in
  let close_ns = Array.make n (-1) in
  let subflows = Array.make clients_n 0 in
  let launch k () =
    let c = flow_client.(k) in
    let cl = clients.(c) in
    let engine = Host.engine fabric.Topology.mm_clients.(c) in
    claim probe (placement.Topology.pl_client c);
    let dst =
      {
        Ip.addr = fabric.Topology.mm_server_addrs.(flow_server.(k)).(0);
        Ip.port = config.Workload.port;
      }
    in
    let conn =
      frame "mptcp:connect" (fun () -> Endpoint.connect cl.endpoint ~src:cl.addrs.(0) ~dst ())
    in
    frame "app:callback" (fun () ->
        Connection.subscribe conn (function
          | Connection.Closed ->
              frame "app:callback" (fun () ->
                  close_ns.(k) <- Time.to_ns (Engine.now engine))
          | Connection.Subflow_established _ -> subflows.(c) <- subflows.(c) + 1
          | _ -> ());
        Bulk.sender conn ~bytes:flow_bytes.(k))
  in
  timed parts schedule (fun () ->
      let root = Shard.engine group 0 in
      let arrival_rng = Engine.split_rng root in
      (* the size stream: fixed sizes draw nothing from it, but the split
         keeps the placement stream where [Workload.run] has it *)
      ignore (Engine.split_rng root : Rng.t);
      let place_rng = Engine.split_rng root in
      let mean_gap_s = 1.0 /. config.Workload.arrival_rate in
      let t = ref Time.zero in
      for k = 0 to n - 1 do
        t := Time.add !t (Time.span_of_float_s (Rng.exponential arrival_rng mean_gap_s));
        start_ns.(k) <- Time.to_ns !t
      done;
      for k = 0 to n - 1 do
        flow_client.(k) <- Rng.int place_rng clients_n;
        flow_server.(k) <- Rng.int place_rng servers_n
      done;
      for k = 0 to n - 1 do
        let engine = Host.engine fabric.Topology.mm_clients.(flow_client.(k)) in
        ignore (Engine.at engine (Time.of_ns start_ns.(k)) (launch k) : Engine.timer)
      done);
  complete probe pool group ~parts ~t_setup
    ~receivers:(fun () -> List.concat (Array.to_list receivers))
    ~expect:size
    (fun () ->
      let result =
        result_of group ~start_ns ~close_ns ~flow_bytes
          ~subflows_created:
            (Array.fold_left (fun acc cl -> acc + Fullmesh.mesh_subflows_created cl.mesh) 0 clients)
          ~failovers:0
      in
      ( result,
        {
          c_launched = n;
          c_bytes = result.Workload.bytes_total;
          c_subflows = Array.fold_left ( + ) 0 subflows;
          c_setups = Array.to_list (Array.map (fun cl -> cl.setup) clients);
          c_instances =
            Array.fold_left (fun acc cl -> acc + Factory.instantiated cl.factory) 0 clients;
          c_refreshes = 0;
        } ))

(* --- the lossy ECMP workload ------------------------------------------------ *)

let run_ecmp ~traced e =
  let probe = if traced then Some (make_probe ~shards:1) else None in
  let parts = Array.make (Array.length setup_names) 0.0 in
  let t_setup = now () in
  let engine, topo =
    timed parts topology (fun () ->
        let engine = Engine.create ~seed:e.e_seed () in
        let topo = Topology.ecmp_fabric engine ~salt:e.e_seed ~n:4 () in
        List.iter (fun d -> Topology.set_duplex_loss d e.e_loss) topo.Topology.core;
        (engine, topo))
  in
  let group = Shard.single engine in
  Option.iter (fun p -> tap p [ topo.Topology.client; topo.Topology.server ]) probe;
  let receivers = ref [] in
  let client_ep =
    timed parts endpoints (fun () ->
        let client_ep = Endpoint.of_host topo.Topology.client in
        let server_ep = Endpoint.of_host topo.Topology.server in
        accept_with server_ep (fun conn ->
            claim probe 0;
            receivers := Bulk.receiver conn ~expect:e.e_bytes :: !receivers);
        Endpoint.listen server_ep ~port:80 ignore;
        client_ep)
  in
  let setup, refresh =
    timed parts control_plane (fun () ->
        let setup = Setup.attach client_ep in
        (setup, Refresh.start setup.Setup.pm (Refresh.default_config ~subflows:e.e_subflows ())))
  in
  let n = e.e_transfers in
  let start_ns = Array.make n (-1) in
  let close_ns = Array.make n (-1) in
  let subflows = ref 0 in
  let src = List.hd (Host.addresses topo.Topology.client) in
  let dst = Ip.endpoint (List.hd (Host.addresses topo.Topology.server)) 80 in
  let rec launch k () =
    claim probe 0;
    start_ns.(k) <- Time.to_ns (Engine.now engine);
    let conn = frame "mptcp:connect" (fun () -> Endpoint.connect client_ep ~src ~dst ()) in
    frame "app:callback" (fun () ->
        Connection.subscribe conn (function
          | Connection.Closed ->
              frame "app:callback" (fun () ->
                  close_ns.(k) <- Time.to_ns (Engine.now engine);
                  if k + 1 < n then
                    ignore (Engine.at engine (Engine.now engine) (launch (k + 1)) : Engine.timer))
          | Connection.Subflow_established _ -> incr subflows
          | _ -> ());
        Bulk.sender conn ~bytes:e.e_bytes)
  in
  timed parts schedule (fun () ->
      ignore (Engine.at engine Time.zero (launch 0) : Engine.timer));
  complete probe None group ~parts ~t_setup
    ~receivers:(fun () -> !receivers)
    ~expect:e.e_bytes
    (fun () ->
      let result =
        result_of group ~start_ns ~close_ns ~flow_bytes:(Array.make n e.e_bytes)
          ~subflows_created:!subflows ~failovers:(Refresh.refreshes refresh)
      in
      ( result,
        {
          c_launched = n;
          c_bytes = result.Workload.bytes_total;
          c_subflows = !subflows;
          c_setups = [ setup ];
          c_instances = 0;
          c_refreshes = Refresh.refreshes refresh;
        } ))

let run ~traced = function
  | Fabric config -> run_fabric ~traced config
  | Ecmp e -> run_ecmp ~traced e
