(** Fig 2b — smarter streaming (§4.3).

    A streaming application sends one 64 KB block per second over two
    5 Mbps / 10 ms paths and wants each block delivered within the second.
    In the paper, the default full-mesh behaviour (both subflows open,
    lowest-RTT scheduler) grows a long tail in the CDF of block completion
    times, as the lossy initial subflow keeps being scheduled and its
    backed-off RTO delays retransmissions, while the smart-stream
    controller (open the second subflow only when mid-block progress is
    short, close any subflow whose RTO exceeds one second) stays tight for
    loss ratios from 10% to 40%. Here neither curve grows a multi-second
    tail (EXPERIMENTS.md). *)

type variant = Default_fullmesh | Smart_stream

val variant_name : variant -> string

type result = {
  delays : float list;  (** block completion times, seconds *)
  blocks_completed : int;
}

val run :
  ?pool:Smapp_par.Lanes.t ->
  ?seeds:int list ->
  ?blocks:int ->
  loss:float ->
  variant:variant ->
  unit ->
  result
(** Aggregates block delays over the given seeds (default 5 runs of 30
    blocks). Loss is applied to the initial path in both directions from the
    start of the run. Seeds run across [pool]'s domains when given. *)
