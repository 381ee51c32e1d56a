(** Fig 2c — smarter exploitation of flow-based load balancing (§4.4).

    Single-homed client and server behind two ECMP routers with four
    parallel 8 Mbps paths (10/20/30/40 ms). The client sends a 100 MB file
    over 5 subflows. With [ndiffports] the hash may map several subflows
    onto one path, clustering completion times (paper: ~28 s with 4 paths
    used, ~37 s with 3, ~55 s with 2; the lower bound on four paths is
    27.8 s and a single path takes 111.7 s). The refresh controller polls
    each subflow's pacing rate every 2.5 s and replaces the slowest, so it
    converges onto all four paths. *)

type variant = Ndiffports | Refresh

val variant_name : variant -> string

type result = {
  variant : variant;
  completion_times : float list;  (** seconds, one per run *)
  paths_used_final : int list;  (** distinct ECMP paths carrying data, per run *)
}

val run :
  ?pool:Smapp_par.Lanes.t ->
  ?seeds:int list ->
  ?file_bytes:int ->
  ?subflows:int ->
  ?paths:int ->
  ?cc:Smapp_tcp.Cc.algo ->
  variant:variant ->
  unit ->
  result
(** Defaults: 20 runs, 100 MB, 5 subflows, 4 paths, uncoupled Reno.

    We default this experiment (only) to uncoupled congestion control: the
    paper's completion times imply near-full utilisation of every path,
    which Linux LIA achieved there because Mininet's default unbounded
    queues never produce drop-based sawteeth; on our bounded-buffer
    substrate LIA's slow coupled growth under-utilises long disjoint paths
    and blurs the clusters. Pass [~cc:Lia] to see that ablation. *)

val ideal_completion : file_bytes:int -> paths:int -> rate_bps:float -> float
(** Lower bound: file over the aggregate of all paths (goodput-adjusted). *)
