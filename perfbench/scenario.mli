(** The benchmark's workloads, built from the simulator's public
    constructors the way {!Smapp_workload.Workload.run} builds its fabric,
    so that the benchmark holds every handle and every callback it gives a
    layer. *)

type ecmp = {
  e_seed : int;
  e_transfers : int;  (** back to back: each starts when the last closes *)
  e_bytes : int;  (** per transfer *)
  e_loss : float;  (** random loss on every core link, both directions *)
  e_subflows : int;  (** per transfer, under the refresh controller *)
}

type shape =
  | Fabric of Smapp_workload.Workload.config
      (** open-loop arrivals of fixed-size transfers with a fullmesh
          controller per connection; [shards > 1] runs the windows on
          that many {!Smapp_par.Lanes} domains *)
  | Ecmp of ecmp  (** the Fig 2c topology, one client, closed loop *)

val workloads : string list

val shape : string -> seed:int -> shape
(** The named workload's inputs for [seed]. Raises [Invalid_argument] on
    an unknown name. *)

type ledger = {
  wall_s : float;
      (** the run on the benchmark's clock; when sharded, the lanes' busy
          time summed *)
  prof_wall_s : float;  (** the same interval as [Prof]'s root frames saw it *)
  dispatch_s : float;  (** inside the engine's per-event dispatch brackets *)
  framed_s : float;  (** self time of every layer frame *)
}
(** Where a traced run's time went. Layer frames ([framed_s]), dispatch
    time that no frame claims ([dispatch_s - framed_s]) and the engine
    loop outside dispatches ([wall_s - dispatch_s]) add up to [wall_s]. *)

val reconciles : ledger -> bool
(** Each of the three parts is non-negative and [prof_wall_s] agrees with
    [wall_s], all within 5% of [wall_s] plus 1 ms. *)

type outcome = {
  result : Smapp_workload.Workload.result;
      (** simulated outputs; [wall_s] and [events_per_sec] are left 0 *)
  setup_s : float;
  run_s : float;  (** from the first [Shard.run] call until every queue drains *)
  receivers_ok : bool;
      (** no server-side receiver got more than a transfer's bytes, and at
          least as many got exactly them as transfers completed *)
  layers : (string * string * float) list;
      (** traced runs: per-layer metrics as (name, unit, value) *)
  ledger : ledger option;  (** traced runs only *)
}

val run : traced:bool -> shape -> outcome
(** Build and run one workload. Untraced, [Prof] and [Metrics] stay off;
    traced, they are on for the run, and the benchmark's own frames
    ([bench:run], [shard:window], [mptcp:connect], [ctrl:callback],
    [app:callback]) nest with the program's. *)
