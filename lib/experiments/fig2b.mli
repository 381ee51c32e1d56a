(** Fig 2b — smarter streaming (§4.3).

    A streaming application sends one 64 KB block per second over two
    5 Mbps / 10 ms paths and wants each block delivered within the second.
    With the default full-mesh behaviour (both subflows open, lowest-RTT
    scheduler) the CDF of block completion times grows a long tail as the
    lossy initial subflow keeps being scheduled and its backed-off RTO
    delays retransmissions. The smart-stream controller instead opens the
    second subflow only when mid-block progress is short, and closes any
    subflow whose RTO exceeds one second; its CDF stays tight for loss
    ratios from 10% to 40%. *)

type variant = Default_fullmesh | Smart_stream

val variant_name : variant -> string

type result = {
  loss : float;
  variant : variant;
  delays : float list;  (** block completion times, seconds *)
  blocks_completed : int;
  blocks_expected : int;
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
