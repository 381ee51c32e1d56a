(** Canned topologies for the paper's experiments.

    All builders wire both directions of every cable and register link
    destinations; after building, hosts only need a transport stack
    ({!Host.set_receive}). *)

open Smapp_sim

type duplex = { fwd : Link.t; back : Link.t }

val set_duplex_loss : duplex -> float -> unit
val set_duplex_up : duplex -> bool -> unit

type path = {
  cable : duplex;  (** [fwd] carries client-to-server traffic *)
  client_addr : Ip.t;
  server_addr : Ip.t;
}

type parallel = {
  client : Host.t;
  server : Host.t;
  paths : path list;
}
(** A multihomed client and server joined by [n] disjoint paths — the
    smartphone topology of §4.2/§4.3 (n = 2) generalised. Path [i] uses the
    subnet [10.0.i.0/24]: client [10.0.i.1], server [10.0.i.2]. *)

val parallel_paths :
  Engine.t ->
  ?rates_bps:float list ->
  ?delays:Time.span list ->
  ?losses:float list ->
  n:int ->
  unit ->
  parallel
(** Per-path parameter lists are padded by repeating their last element;
    defaults: 5 Mbps, 10 ms, 0 loss (the §4.3 setup). *)

type ecmp = {
  client : Host.t;
  server : Host.t;
  r1 : Router.t;  (** client-side router *)
  r2 : Router.t;  (** server-side router *)
  core : duplex list;  (** the parallel equal-cost paths, [fwd] = r1 to r2 *)
  access_client : duplex;
  access_server : duplex;
}
(** Single-homed hosts behind two routers that load-balance over [n]
    parallel core paths — §4.4's topology. Client is [10.1.0.1], server
    [10.2.0.1]; access links are fast (1 Gbps, 0.1 ms). *)

val ecmp_fabric : Engine.t -> ?salt:int -> n:int -> unit -> ecmp
(** 8 Mbps cores with delays 10, 20, 30, 40 ms (repeating the last when [n]
    exceeds the list) and 25-packet (≈ BDP) drop-tail queues, like a
    Mininet link with a bounded queue. *)

type fabric = {
  mm_clients : Host.t array;
  mm_servers : Host.t array;
  mm_routers : Router.t array;  (** one per path *)
  mm_client_addrs : Ip.t array array;  (** [(i).(p)]: client [i] on path [p] *)
  mm_server_addrs : Ip.t array array;  (** [(j).(p)]: server [j] on path [p] *)
}
(** A many-connection workload fabric: [clients] multihomed clients and
    [servers] multihomed servers joined by [paths] disjoint routed fabrics.
    Path [p] uses subnet [(10+p).side.x.y] (side 1 = clients, 2 = servers);
    every host reaches every other over every path through its own access
    cable, so per-host capacity does not shrink as the population grows. *)

type placement = {
  pl_shards : int;
  pl_client : int -> int;  (** client index to shard *)
  pl_server : int -> int;
  pl_router : int -> int;  (** path (= fabric router) index to shard *)
}
(** Where each fabric component lives in a {!Smapp_sim.Shard.group}. *)

val partition :
  shards:int -> clients:int -> servers:int -> paths:int -> placement
(** The default region partition: clients and servers split into
    contiguous index blocks ([host i] goes to shard [i * shards / count]),
    fabric routers round-robin over shards. *)

val many_to_many_sharded :
  Smapp_sim.Shard.group ->
  ?rates_bps:float list ->
  ?delays:Time.span list ->
  clients:int ->
  servers:int ->
  paths:int ->
  unit ->
  fabric
(** [clients] hosts and [servers] hosts, each with [paths] lossless access
    cables with 128-packet queues into a per-path core router. Per-path
    parameter lists pad by repeating their last element, as in
    {!parallel_paths}; defaults: 10 Mbps, 10 ms. Hosts and routers are
    placed on shards by {!partition}. An access cable's
    two simplex links split between the host's and the router's shards;
    links crossing shards become mailbox edges: deliveries commit at
    transmit time through {!Smapp_sim.Shard.post} (see
    {!Link.set_remote}), and each such link registers its propagation
    delay as a lookahead bound via {!Smapp_sim.Shard.register_cross}. On a
    single-shard group ([Shard.single engine]) no link crosses. *)

type direct = {
  client : Host.t;
  server : Host.t;
  cable : duplex;
}

val direct_link :
  Engine.t ->
  ?rate_bps:float ->
  ?delay:Time.span ->
  unit ->
  direct
(** The §4.5 lab setup: two hosts and one cable (default 1 Gbps, 50 µs). *)
