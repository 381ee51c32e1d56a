open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Factory = Smapp_controllers.Factory
module Fullmesh = Smapp_controllers.Fullmesh
module Backup = Smapp_controllers.Backup
module Bulk = Smapp_apps.Bulk

type flow_dist =
  | Fixed of int
  | Pareto of { xmin : int; alpha : float; cap : int }
  | Exponential of { mean : int }

type controller = [ `None | `Fullmesh | `Backup ]

type config = {
  conns : int;
  arrival_rate : float;
  flow_dist : flow_dist;
  controller : controller;
  clients : int;
  servers : int;
  paths : int;
  access_rate_bps : float;
  access_delay : Time.span;
  seed : int;
  port : int;
  shards : int;
}

let default_config =
  {
    conns = 1000;
    arrival_rate = 500.0;
    flow_dist = Pareto { xmin = 10_000; alpha = 1.5; cap = 10_000_000 };
    controller = `Fullmesh;
    clients = 8;
    servers = 4;
    paths = 2;
    access_rate_bps = 20_000_000.0;
    access_delay = Time.span_ms 5;
    seed = 42;
    port = 8080;
    shards = 1;
  }

type result = {
  launched : int;
  completed : int;
  peak_concurrent : int;
  bytes_total : int;
  fcts : float list;
  goodputs : float list;
  subflows_created : int;
  failovers : int;
  sim_duration_s : float;
  wall_s : float;
  engine_events : int;
  events_per_sec : float;
}

let sample_size dist rng =
  match dist with
  | Fixed n -> n
  | Exponential { mean } ->
      max 1 (int_of_float (Rng.exponential rng (float_of_int mean)))
  | Pareto { xmin; alpha; cap } ->
      (* inverse transform: xmin * u^(-1/alpha), truncated at cap *)
      let u = max 1e-12 (Rng.float rng 1.0) in
      let x = float_of_int xmin *. (u ** (-1.0 /. alpha)) in
      min cap (max xmin (int_of_float x))

(* One client host's slice of the workload: its endpoint plus the attached
   control plane and per-connection controller factory. *)
type client = {
  cl_endpoint : Endpoint.t;
  cl_addrs : Ip.t array;
  cl_mesh : Fullmesh.mesh_state option;
  cl_backup : Backup.backup_state option;
}

let make_client config (fabric : Topology.fabric) i =
  let host = fabric.Topology.mm_clients.(i) in
  let addrs = fabric.Topology.mm_client_addrs.(i) in
  let endpoint = Endpoint.of_host host in
  let setup = Setup.attach endpoint in
  let cl_mesh, cl_backup =
    match config.controller with
    | `None -> (None, None)
    | `Fullmesh ->
        let fm_config =
          Fullmesh.default_config ~local_addresses:(Array.to_list addrs) ()
        in
        let state = Fullmesh.mesh_state fm_config in
        ignore (Factory.start setup.Setup.pm (Fullmesh.per_conn state));
        (Some state, None)
    | `Backup ->
        (* primary on path 0; the rest of the paths are failover spares *)
        let spares = Array.to_list (Array.sub addrs 1 (Array.length addrs - 1)) in
        let bk_config = Backup.default_config ~backup_sources:spares () in
        let state = Backup.backup_state bk_config in
        ignore (Factory.start setup.Setup.pm (Backup.per_conn state));
        (None, Some state)
  in
  { cl_endpoint = endpoint; cl_addrs = addrs; cl_mesh; cl_backup }

(* Peak concurrency by a post-hoc sweep over the merged (start, close)
   events — launch times are known up front and close times are recorded
   per flow, so the peak is a pure function of per-flow data, independent
   of the execution mode (sequential or sharded). Closes sort before
   starts at equal instants. *)
let peak_of ~start_ns ~close_ns =
  let events = ref [] in
  Array.iteri (fun _ t -> events := (t, 1) :: !events) start_ns;
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

let run ?lanes ?perturb config =
  if config.conns < 1 then invalid_arg "Workload.run: conns must be >= 1";
  if config.arrival_rate <= 0.0 then
    invalid_arg "Workload.run: arrival rate must be positive";
  if config.controller = `Backup && config.paths < 2 then
    invalid_arg "Workload.run: backup controller needs at least 2 paths";
  if config.shards < 1 then invalid_arg "Workload.run: shards must be >= 1";
  let wall_start = Unix.gettimeofday () in
  let group =
    if config.shards = 1 then Shard.single (Engine.create ~seed:config.seed ())
    else Shard.create ~seed:config.seed ~shards:config.shards ()
  in
  let fabric =
    Topology.many_to_many_sharded group
      ~rates_bps:[ config.access_rate_bps ]
      ~delays:[ config.access_delay ] ~clients:config.clients
      ~servers:config.servers ~paths:config.paths ()
  in
  (* servers: accept anything on the port and sink the bytes *)
  Array.iter
    (fun host ->
      let endpoint = Endpoint.of_host host in
      Endpoint.listen endpoint ~port:config.port (fun conn ->
          Connection.set_receive conn (fun _len -> ())))
    fabric.Topology.mm_servers;
  let clients = Array.init config.clients (make_client config fabric) in
  (* independent streams so changing one knob never shifts another's
     draws; split from the shared construction root, so the schedule is
     the same for every shard count *)
  let root = Shard.engine group 0 in
  let arrival_rng = Engine.split_rng root in
  let size_rng = Engine.split_rng root in
  let place_rng = Engine.split_rng root in
  (* The whole open-loop Poisson schedule is drawn up front (identical
     per-stream draw sequences to scheduling it incrementally) and each
     launch lands on its client's own engine. *)
  let mean_gap_s = 1.0 /. config.arrival_rate in
  let start_ns = Array.make config.conns 0 in
  let t = ref Time.zero in
  for k = 0 to config.conns - 1 do
    t := Time.add !t (Time.span_of_float_s (Rng.exponential arrival_rng mean_gap_s));
    start_ns.(k) <- Time.to_ns !t
  done;
  let flow_client = Array.make config.conns 0 in
  let flow_server = Array.make config.conns 0 in
  let flow_bytes = Array.make config.conns 0 in
  for k = 0 to config.conns - 1 do
    flow_client.(k) <- Rng.int place_rng config.clients;
    flow_server.(k) <- Rng.int place_rng config.servers;
    flow_bytes.(k) <- sample_size config.flow_dist size_rng
  done;
  (* per-flow close stamps: flow k is driven entirely by its client's
     shard, so under parallel lanes each cell has exactly one writer *)
  let close_ns = Array.make config.conns (-1) in
  let launch k =
    let c = flow_client.(k) in
    let cl = clients.(c) in
    let engine = Host.engine fabric.Topology.mm_clients.(c) in
    let src = cl.cl_addrs.(0) in
    let dst =
      {
        Ip.addr = fabric.Topology.mm_server_addrs.(flow_server.(k)).(0);
        Ip.port = config.port;
      }
    in
    let conn = Endpoint.connect cl.cl_endpoint ~src ~dst () in
    Connection.subscribe conn (function
      | Connection.Closed -> close_ns.(k) <- Time.to_ns (Engine.now engine)
      | _ -> ());
    Bulk.sender conn ~bytes:flow_bytes.(k)
  in
  for k = 0 to config.conns - 1 do
    let engine = Host.engine fabric.Topology.mm_clients.(flow_client.(k)) in
    Engine.schedule engine (Time.of_ns start_ns.(k)) (fun () -> launch k)
  done;
  (match perturb with None -> () | Some f -> f fabric);
  let lanes =
    match lanes with
    | Some pool when Shard.shards group > 1 ->
        Some (fun f -> Smapp_par.Lanes.run pool ~shards:(Shard.shards group) f)
    | _ -> None
  in
  Shard.run ?lanes group;
  let wall_s = Unix.gettimeofday () -. wall_start in
  let engine_events = Shard.events_executed group in
  (* completion order = (close time, launch index): well-defined and
     identical in every execution mode *)
  let order =
    List.sort
      (fun a b ->
        let c = compare close_ns.(a) close_ns.(b) in
        if c <> 0 then c else compare a b)
      (List.filter
         (fun k -> close_ns.(k) >= 0)
         (List.init config.conns (fun k -> k)))
  in
  let fct k = float_of_int (close_ns.(k) - start_ns.(k)) *. 1e-9 in
  {
    launched = config.conns;
    completed = List.length order;
    peak_concurrent = peak_of ~start_ns ~close_ns;
    bytes_total = List.fold_left (fun acc k -> acc + flow_bytes.(k)) 0 order;
    fcts = List.map fct order;
    goodputs =
      List.filter_map
        (fun k ->
          let fct = fct k in
          if fct > 0.0 then Some (float_of_int (flow_bytes.(k) * 8) /. fct)
          else None)
        order;
    subflows_created =
      Array.fold_left
        (fun acc cl ->
          acc
          + (match cl.cl_mesh with
            | Some s -> Fullmesh.mesh_subflows_created s
            | None -> 0))
        0 clients;
    failovers =
      Array.fold_left
        (fun acc cl ->
          acc
          + (match cl.cl_backup with Some s -> Backup.backup_failovers s | None -> 0))
        0 clients;
    sim_duration_s =
      Time.span_to_float_s (Time.diff (Shard.last_event_time group) Time.zero);
    wall_s;
    engine_events;
    events_per_sec =
      (if wall_s > 0.0 then float_of_int engine_events /. wall_s else 0.0);
  }

(* Every deterministic field, with floats rendered by their exact bit
   patterns; wall_s / events_per_sec are measurements and excluded. *)
let digest r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "launched=%d;completed=%d;peak=%d;bytes=%d;" r.launched
    r.completed r.peak_concurrent r.bytes_total;
  Printf.bprintf b "subflows=%d;failovers=%d;events=%d;sim=%Lx;fcts="
    r.subflows_created r.failovers r.engine_events
    (Int64.bits_of_float r.sim_duration_s);
  List.iter (fun f -> Printf.bprintf b "%Lx," (Int64.bits_of_float f)) r.fcts;
  Buffer.add_string b ";goodputs=";
  List.iter (fun f -> Printf.bprintf b "%Lx," (Int64.bits_of_float f)) r.goodputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Multi-seed replication: the same workload re-run under each seed —
   independent simulations, so they parallelise like any experiment sweep.
   Results come back in seed order. (Window lanes stay sequential inside
   pooled jobs: one layer of domains at a time.) *)
let run_many ?pool ~seeds config =
  Smapp_par.Sweep.map ?pool (fun seed -> run { config with seed }) seeds
