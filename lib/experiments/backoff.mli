(** The §4.2 narrative experiment: how long plain RFC 6824 backup semantics
    take to fail over.

    The backup subflow is pre-established with the backup flag; at t = 1 s
    the primary's loss jumps to 30%. TCP keeps retransmitting with
    exponential backoff ("15 doublings on Linux") until the subflow is
    terminated — "after 12 minutes in our experiment" — and only then does
    Multipath TCP move the traffic to the backup subflow. *)

type result = {
  subflow_died_at : float option;  (** seconds; the paper observes ~12 min *)
  rto_expirations : int;
  max_rto_seen : float;
  bytes_before_failover : int;
  bytes_after_failover : int;
  predicted_kill_s : float;
      (** closed-form kill time from the capped-exponential RTO schedule
          ({!Smapp_core.Retry.total_delay} over the first measured RTO);
          compare against [subflow_died_at] - 1 s of loss onset *)
}

val run : ?loss:float -> ?max_backoffs:int -> ?horizon:float -> unit -> result
(** Seed 42. Defaults: 30% loss, 15 backoffs, 1500 s horizon. *)
