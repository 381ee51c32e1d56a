(** A many-connection traffic generator over the control plane.

    The paper's experiments drive one connection at a time; this module is
    the scale-out counterpart: N multihomed clients talk to M servers over a
    shared {!Smapp_netsim.Topology.many_to_many_sharded} fabric, connections arrive
    open-loop (Poisson), flow sizes come from a configurable (optionally
    heavy-tailed) distribution, and every connection gets its own controller
    handlers ({!Smapp_controllers.Conn_view.handlers}). The run reports
    flow-completion times, goodput, and the engine's events-per-second —
    the engine's scheduler-throughput figure. *)

open Smapp_sim

type flow_dist =
  | Fixed of int  (** every flow transfers exactly this many bytes *)
  | Pareto of { xmin : int; alpha : float; cap : int }
      (** heavy-tailed (mice and elephants), truncated at [cap] bytes *)
  | Exponential of { mean : int }

type controller = [ `None | `Fullmesh | `Backup ]

type config = {
  conns : int;  (** connections to launch *)
  arrival_rate : float;  (** mean arrivals per simulated second *)
  flow_dist : flow_dist;
  controller : controller;
      (** instantiated per connection on each client's control plane;
          [`Backup] requires [paths >= 2] *)
  clients : int;
  servers : int;
  paths : int;
  access_rate_bps : float;  (** per host-path access capacity *)
  access_delay : Time.span;
  seed : int;
  port : int;
  shards : int;
      (** engines advancing the scenario under the conservative-window
          protocol ({!Smapp_sim.Shard}); 1 = the plain single engine.
          Hosts partition by region ({!Smapp_netsim.Topology.partition})
          and the lookahead is the access-cable delay. Results are
          byte-identical for every shard count (test_shard's property,
          test_golden's 4-shard digest and CI's digest diffs verify
          it). *)
}

val default_config : config
(** 1000 connections at 500/s, Pareto(10 kB, 1.5) sizes capped at 10 MB,
    fullmesh controllers, 8 clients x 4 servers x 2 paths, 20 Mbps / 5 ms
    access, seed 42, 1 shard. *)

type result = {
  launched : int;
  completed : int;
  peak_concurrent : int;  (** most connections simultaneously open *)
  bytes_total : int;
  fcts : float list;  (** flow completion times (s), completion order *)
  goodputs : float list;  (** per-flow goodput (bit/s), completion order *)
  subflows_created : int;  (** by fullmesh controller instances *)
  failovers : int;  (** by backup controller instances *)
  sim_duration_s : float;
  wall_s : float;  (** wall-clock seconds for the whole run *)
  engine_events : int;
  events_per_sec : float;  (** [engine_events /. wall_s] *)
}

val run :
  ?lanes:Smapp_par.Lanes.t ->
  ?perturb:(Smapp_netsim.Topology.fabric -> unit) ->
  config ->
  result
(** Deterministic for a given [config] (all randomness derives from [seed]);
    returns once every launched connection has closed and the event queue
    drained.

    The arrival schedule (times, placements, sizes) is drawn up front from
    the construction RNG root, so it is identical for every [shards]
    value; each launch then runs on its client's shard. [lanes] executes
    the windows of a multi-shard run across a persistent domain pool
    (ignored when [shards = 1]); results are byte-identical with or
    without it. [perturb] runs after construction and before the
    simulation — chaos scenarios use it to schedule host-local faults
    (e.g. NIC outages) on the fabric. *)

val digest : result -> string
(** Hex digest over every deterministic field (completion counts, peak,
    bytes, FCT and goodput lists bit-exactly, sim duration, engine event
    count) — the byte-identity gate for sequential-vs-sharded runs.
    [wall_s] and [events_per_sec] are measurements and excluded. *)

val run_many : ?pool:Smapp_par.Lanes.t -> seeds:int list -> config -> result list
(** One {!run} per seed (the config's own [seed] field is replaced),
    across [pool]'s domains when given; results in seed order. Wall-time
    fields ([wall_s], [events_per_sec]) are per-lane measurements and the
    only non-deterministic part of the result. *)
