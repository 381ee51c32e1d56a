(** Congestion control: NewReno and the coupled Linked-Increases Algorithm
    (LIA, RFC 6356) that Linux Multipath TCP uses by default.

    The window is kept in bytes. LIA couples the congestion-avoidance
    increase across the subflows of one MPTCP connection; the set of sibling
    windows is supplied by a probe callback installed by the meta layer. *)

type algo = Reno | Lia

type sibling = {
  s_cwnd : int;  (** bytes *)
  s_srtt : float;  (** seconds; <= 0 means unknown *)
}

type t

val create : ?algo:algo -> ?initial_window:int -> mss:int -> unit -> t
(** [initial_window] in segments (default 10, like Linux). *)

val cwnd : t -> int
(** Current congestion window, bytes. *)

val ssthresh : t -> int
val in_slow_start : t -> bool

val set_sibling_probe : t -> (unit -> sibling list) -> unit
(** Provide all subflows of the connection, including this one. Only used
    by {!Lia}. *)

val on_ack : t -> acked:int -> srtt:float -> unit
(** [acked] bytes newly acknowledged; [srtt] this subflow's smoothed RTT in
    seconds (<= 0 if unknown). *)

val on_retransmit_loss : t -> in_flight:int -> unit
(** Fast-retransmit loss: halve the window (not below 2 MSS). *)

val on_rto : t -> unit
(** Timeout: window back to 1 MSS, ssthresh halved. *)

val on_idle_restart : t -> idle_rtos:int -> unit
(** Slow-start after idle (RFC 2861 / Linux [tcp_slow_start_after_idle]):
    halve the window once per RTO spent idle, not below the initial
    window. *)

val pacing_rate : t -> srtt:float -> float
(** Bytes per second: [2 * cwnd/srtt] in slow start, [1.2 * cwnd/srtt]
    after, mirroring Linux [sk_pacing_rate]. 0 when [srtt <= 0]. *)
