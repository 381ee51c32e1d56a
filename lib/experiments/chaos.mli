(** Chaos harness for the fault-tolerant control plane: runs the fullmesh
    controller over a lossy Netlink channel and audits the controller's
    {!Smapp_controllers.Conn_view} against true kernel subflow state.

    Two scenarios:

    - {!run_convergence}: probabilistic message drop plus one scripted
      daemon crash/restart. Measures how long after the restart the view
      converges to (and stays at) the kernel's established-subflow set,
      and that recovery never double-created a subflow.
    - {!run_watchdog}: the daemon dies for good; the in-kernel watchdog
      must fall back to kernel-side meshing and the connection must keep
      moving data. *)

type controller = [ `Fullmesh | `Backup ]

type convergence_result = {
  controller : string;
  drop : float;
  seed : int;
  converged_after_s : float option;
      (** seconds after the daemon restart from which view = kernel holds
          to the end of the run; [None] = never converged *)
  duplicate_subflows : int;  (** kernel subflows sharing a four-tuple (want 0) *)
  kernel_subflows : int;
  view_subflows : int;
  retries : int;  (** command retransmissions ({!Smapp_core.Pm_lib.retries}) *)
  resyncs : int;
  gaps_detected : int;
  dropped : int;  (** channel messages lost (faults + crash windows) *)
  duplicated : int;
  overflowed : int;  (** ENOBUFS drops *)
  duplicate_commands : int;  (** kernel-side idempotency-cache replays *)
}

val run_convergence :
  ?controller:controller ->
  ?seed:int ->
  ?drop:float ->
  ?duration:float ->
  unit ->
  convergence_result
(** The daemon is down from t = 5 s for 0.5 s. Defaults: fullmesh
    controller, 5% drop, run 12 s. With [`Backup] the audited view is an independent
    {!Smapp_controllers.Conn_view} on the same library (the backup
    controller keeps no public view). *)

val run_grid :
  ?pool:Smapp_par.Lanes.t ->
  ?seeds:int list ->
  ?drops:float list ->
  unit ->
  convergence_result list
(** {!run_convergence} over a (controller x drop rate x seed) grid: both
    controllers, by default x 4 drop rates [[0; 0.01; 0.05; 0.10]] x 5
    seeds. Cells run across [pool]'s domains when given, results in grid
    order either way. *)

type watchdog_result = {
  w_fallback_active : bool;
  w_fallbacks : int;
  w_handbacks : int;
  w_kernel_subflows : int;
  w_bytes_at_loss : int;  (** bytes acked when the daemon died *)
  w_bytes_final : int;  (** must keep growing under kernel-side fallback *)
}

val run_watchdog : ?seed:int -> unit -> watchdog_result
(** The daemon is lost at t = 5 s; run 15 s, 100 ms watchdog interval
    with threshold 3 and fullmesh fallback. *)

(** {1 Data-plane chaos}

    Where the scenarios above abuse the {e control} plane (a lossy Netlink
    channel), these abuse the {e data} plane with {!Smapp_netsim.Linkmodel}:
    time-varying wireless links, scheduled handover, burst loss and path
    death — and audit graceful-degradation invariants. *)

type dataplane_scenario =
  [ `Mobile  (** WiFi+LTE client roaming on a handover schedule (fullmesh) *)
  | `Degrade  (** primary fades in steps then the cable is cut (backup) *)
  | `Dualfade  (** correlated Gilbert–Elliott fade on both paths (fullmesh) *)
  | `Regionfail
    (** half the clients of a many-connection workload fabric lose their
        path-0 NIC for 1.5 s; per-connection backup controllers must fail
        over and the transfer set must still complete exactly. The one
        scenario whose faults are host-local, hence runnable under any
        shard count ({!Smapp_sim.Shard}) with byte-identical results;
        [dp_max_stall_s] reports the worst flow-completion time. *)
  ]

type dataplane_result = {
  dp_scenario : string;
  dp_seed : int;
  dp_bytes_sent : int;  (** bytes the client committed to the stream *)
  dp_bytes_received : int;  (** bytes the server's sink saw, in order *)
  dp_completed : bool;
  dp_byte_exact : bool;  (** received = sent exactly: nothing lost or duplicated *)
  dp_completed_at_s : float option;
  dp_handovers : int;  (** handovers the mobility schedule executed *)
  dp_failovers : int;  (** backup-controller primary-to-backup switches *)
  dp_subflow_requests : int;  (** mesh Create_subflow commands issued *)
  dp_reconnects : int;  (** mesh reconnects scheduled after subflow errors *)
  dp_stale_suppressed : int;  (** reconnects refused: source address was gone *)
  dp_cap_ok : bool;  (** churn stayed within the controller's configured caps *)
  dp_max_stall_s : float;
      (** worst app-level progress stall observed while >= 1 path was
          usable — the scenario's failover latency *)
  dp_stall_bound_s : float;  (** the scenario's liveness bound *)
  dp_live_ok : bool;  (** [dp_max_stall_s <= dp_stall_bound_s] *)
  dp_link_drops : int;  (** queue overflows + down-link + in-flight kills *)
  dp_goodput_bps : float;
}

val dataplane_invariants_ok : dataplane_result -> bool
(** Completed, byte-exact, live within the stall bound, churn within caps. *)

val run_dataplane :
  ?scenario:dataplane_scenario ->
  ?seed:int ->
  ?shards:int ->
  unit ->
  dataplane_result
(** One scenario at one seed. Deterministic: same scenario and seed, same
    result, to the byte — including under any [shards] count (default 1).
    Only [`Regionfail] actually shards; the other scenarios modulate both
    directions of shared cables and kill packets in flight, which is
    single-engine by construction, so they ignore [shards] (the
    single-shard fallback). *)

val run_dataplane_grid :
  ?pool:Smapp_par.Lanes.t ->
  ?scenarios:dataplane_scenario list ->
  ?shards:int ->
  unit ->
  dataplane_result list
(** Every scenario x seed cell (3 seeds; all four scenarios by default),
    across [pool]'s domains when given, results in grid order either way.
    [shards] forwards to each {!run_dataplane} cell. *)
