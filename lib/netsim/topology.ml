open Smapp_sim

type duplex = { fwd : Link.t; back : Link.t }

let duplex engine ~rate_bps ~delay ?loss ?queue_capacity () =
  let fwd = Link.create engine ~rate_bps ~delay ?loss ?queue_capacity () in
  let back = Link.create engine ~rate_bps ~delay ?loss ?queue_capacity () in
  { fwd; back }

let set_duplex_loss d loss =
  Link.set_loss d.fwd loss;
  Link.set_loss d.back loss

let set_duplex_up d up =
  Link.set_up d.fwd up;
  Link.set_up d.back up

type path = { cable : duplex; client_addr : Ip.t; server_addr : Ip.t }
type parallel = { client : Host.t; server : Host.t; paths : path list }

(* [pick params i] repeats the last element when the list is shorter. *)
let rec pick params i =
  match params with
  | [] -> invalid_arg "Topology: empty parameter list"
  | [ last ] -> last
  | first :: rest -> if i = 0 then first else pick rest (i - 1)

let parallel_paths engine ?(rates_bps = [ 5_000_000.0 ]) ?(delays = [ Time.span_ms 10 ])
    ?(losses = [ 0.0 ]) ~n () =
  if n < 1 then invalid_arg "Topology.parallel_paths: n must be >= 1";
  let client = Host.create engine in
  let server = Host.create engine in
  let make_path i =
    let client_addr = Ip.v4 10 0 i 1 and server_addr = Ip.v4 10 0 i 2 in
    let cnic = Host.add_nic client ~name:(Printf.sprintf "c-eth%d" i) ~addr:client_addr in
    let snic = Host.add_nic server ~name:(Printf.sprintf "s-eth%d" i) ~addr:server_addr in
    let cable =
      duplex engine ~rate_bps:(pick rates_bps i) ~delay:(pick delays i)
        ~loss:(pick losses i) ()
    in
    Host.attach cnic cable.fwd;
    Host.attach snic cable.back;
    Link.set_dst cable.fwd (Host.deliver server);
    Link.set_dst cable.back (Host.deliver client);
    { cable; client_addr; server_addr }
  in
  { client; server; paths = List.init n make_path }

type ecmp = { client : Host.t; server : Host.t; r1 : Router.t; core : duplex list }

let core_delays = [ Time.span_ms 10; Time.span_ms 20; Time.span_ms 30; Time.span_ms 40 ]

let ecmp_fabric engine ?(salt = 0) ~n () =
  if n < 1 then invalid_arg "Topology.ecmp_fabric: n must be >= 1";
  let client = Host.create engine in
  let server = Host.create engine in
  let client_addr = Ip.v4 10 1 0 1 and server_addr = Ip.v4 10 2 0 1 in
  let cnic = Host.add_nic client ~name:"c-eth0" ~addr:client_addr in
  let snic = Host.add_nic server ~name:"s-eth0" ~addr:server_addr in
  let r1 = Router.create ~salt () in
  let r2 = Router.create ~salt:(salt + 1) () in
  let access () = duplex engine ~rate_bps:1e9 ~delay:(Time.span_us 100) () in
  let access_client = access () in
  let access_server = access () in
  Host.attach cnic access_client.fwd;
  Host.attach snic access_server.fwd;
  Link.set_dst access_client.fwd (Router.deliver r1);
  Link.set_dst access_client.back (Host.deliver client);
  Link.set_dst access_server.fwd (Router.deliver r2);
  Link.set_dst access_server.back (Host.deliver server);
  let core =
    List.init n (fun i ->
        let cable =
          duplex engine ~rate_bps:8_000_000.0 ~delay:(pick core_delays i)
            ~queue_capacity:25 ()
        in
        Link.set_dst cable.fwd (Router.deliver r2);
        Link.set_dst cable.back (Router.deliver r1);
        cable)
  in
  Router.add_route r1 server_addr (List.map (fun c -> c.fwd) core);
  Router.add_route r1 client_addr [ access_client.back ];
  Router.add_route r2 client_addr (List.map (fun c -> c.back) core);
  Router.add_route r2 server_addr [ access_server.back ];
  { client; server; r1; core }

type fabric = {
  mm_clients : Host.t array;
  mm_servers : Host.t array;
  mm_client_addrs : Ip.t array array;
  mm_server_addrs : Ip.t array array;
}

(* --- sharded placement -------------------------------------------------------- *)

type placement = {
  pl_client : int -> int;
  pl_server : int -> int;
  pl_router : int -> int;
}

(* Hosts partition into contiguous index blocks — the "region" reading:
   clients [0, C/S) are region 0, and region locality survives a change
   in population. Routers (one per path, shared by everyone) round-robin
   so no single shard carries the whole switching load. *)
let partition ~shards ~clients ~servers ~paths =
  if shards < 1 then invalid_arg "Topology.partition: shards must be >= 1";
  if clients < 1 || servers < 1 || paths < 1 then
    invalid_arg "Topology.partition: clients, servers, paths must be >= 1";
  {
    pl_client = (fun i -> i * shards / clients);
    pl_server = (fun j -> j * shards / servers);
    pl_router = (fun p -> p mod shards);
  }

(* N clients x M servers, [paths] disjoint fabrics. Each fabric is one
   router every host hangs off through its own access cable, so a host's
   per-path capacity is its access rate, independent of population size.
   Every router knows all of a host's addresses: a subflow from a client's
   path-q address to a server's path-p address travels fabric q out and
   fabric p back — asymmetric, like policy routing on a multihomed host,
   but never blackholed.

   Under a multi-shard group, each component lives on its placed shard's
   engine; the two simplex links of an access cable split between the
   host's and the router's shards, and any link whose sender and receiver
   landed on different shards becomes a mailbox edge
   ([Link.set_remote] + [Shard.register_cross]). Construction runs on the
   caller's domain in one fixed program order, and every member engine
   shares one construction RNG root, so component streams are identical
   for every shard count. *)
let many_to_many_sharded group ?(rates_bps = [ 10_000_000.0 ])
    ?(delays = [ Time.span_ms 10 ]) ~clients ~servers ~paths () =
  if clients < 1 || servers < 1 || paths < 1 then
    invalid_arg "Topology.many_to_many_sharded: clients, servers, paths must be >= 1";
  if clients > 65_536 || servers > 65_536 then
    invalid_arg "Topology.many_to_many_sharded: at most 65536 hosts per side";
  if paths > 245 then invalid_arg "Topology.many_to_many_sharded: at most 245 paths";
  let placement = partition ~shards:(Shard.shards group) ~clients ~servers ~paths in
  let engine_of s = Shard.engine group s in
  let cross_link link ~src ~dst =
    Link.set_remote link (Shard.post group ~src ~dst);
    Shard.register_cross group ~src ~dst (fun () -> Link.delay link)
  in
  let routers = Array.init paths (fun p -> Router.create ~salt:p ()) in
  let wire host hshard side idx =
    let addrs =
      Array.init paths (fun p -> Ip.v4 (10 + p) side (idx / 256) (idx mod 256))
    in
    Array.iteri
      (fun p addr ->
        let nic = Host.add_nic host ~name:(Printf.sprintf "eth%d" p) ~addr in
        let rshard = placement.pl_router p in
        let mk e =
          Link.create e ~rate_bps:(pick rates_bps p) ~delay:(pick delays p)
            ~queue_capacity:128 ()
        in
        let fwd = mk (engine_of hshard) in
        let back = mk (engine_of rshard) in
        Host.attach nic fwd;
        Link.set_dst fwd (Router.deliver routers.(p));
        Link.set_dst back (Host.deliver host);
        if hshard <> rshard then begin
          cross_link fwd ~src:hshard ~dst:rshard;
          cross_link back ~src:rshard ~dst:hshard
        end;
        Array.iter (fun a -> Router.add_route routers.(p) a [ back ]) addrs)
      addrs;
    addrs
  in
  let mm_clients =
    Array.init clients (fun i -> Host.create (engine_of (placement.pl_client i)))
  in
  let mm_servers =
    Array.init servers (fun j -> Host.create (engine_of (placement.pl_server j)))
  in
  let mm_client_addrs =
    Array.mapi (fun i h -> wire h (placement.pl_client i) 1 i) mm_clients
  in
  let mm_server_addrs =
    Array.mapi (fun j h -> wire h (placement.pl_server j) 2 j) mm_servers
  in
  { mm_clients; mm_servers; mm_client_addrs; mm_server_addrs }

type direct = { client : Host.t; server : Host.t; cable : duplex }

let direct_link engine ?(rate_bps = 1e9) ?(delay = Time.span_us 50) () =
  let client = Host.create engine in
  let server = Host.create engine in
  let cnic = Host.add_nic client ~name:"c-eth0" ~addr:(Ip.v4 10 0 0 1) in
  let snic = Host.add_nic server ~name:"s-eth0" ~addr:(Ip.v4 10 0 0 2) in
  (* a gigabit NIC ring plus switch buffers hold far more than the shaped
     links' queues; big enough that full receive windows never tail-drop *)
  let cable = duplex engine ~rate_bps ~delay ~queue_capacity:4096 () in
  Host.attach cnic cable.fwd;
  Host.attach snic cable.back;
  Link.set_dst cable.fwd (Host.deliver server);
  Link.set_dst cable.back (Host.deliver client);
  { client; server; cable }
