(** Congestion control: NewReno and the coupled Linked-Increases Algorithm
    (LIA, RFC 6356) that Linux Multipath TCP uses by default.

    The window is kept in bytes. LIA couples the congestion-avoidance
    increase across the subflows of one MPTCP connection: the connection
    keeps its subflows' controllers in one {!group}, and each controller
    carries the two inputs a sibling's update reads of it — whether its
    TCB is established, and its smoothed RTT. Like Linux's
    [mptcp_coupled.c], an update walks the live group; nothing is copied
    per ACK. *)

type algo = Reno | Lia

type t

val create : ?algo:algo -> ?initial_window:int -> mss:int -> unit -> t
(** [initial_window] in segments (default 10, like Linux). *)

val cwnd : t -> int
(** Current congestion window, bytes. *)

val ssthresh : t -> int
val in_slow_start : t -> bool

(** {2 Coupling} *)

type group
(** One connection's controllers, in the connection's subflow order. It
    starts empty and grows by doubling; joining and leaving allocate
    nothing once it has room. *)

val group : unit -> group

val join : group -> t -> unit
(** Append a subflow's controller. *)

val leave : group -> t -> unit
(** Remove a controller in place, keeping the others' order. *)

val set_established : t -> bool -> unit
(** Whether the subflow's TCB is established; only established siblings
    count. The TCB writes it on every state change. *)

val set_srtt_ns : t -> int -> unit
(** The subflow's smoothed RTT in nanoseconds, written by the TCB after
    each RTT sample; -1 (the initial value) means no sample yet, and a
    sibling without one drops out of alpha. *)

(** {2 Events} *)

val on_ack : t -> acked:int -> unit
(** [acked] bytes newly acknowledged. In congestion avoidance, a {!Lia}
    controller in a group with at least two established siblings that
    have an RTT sample and a window takes RFC 6356's coupled increase;
    otherwise the window grows as Reno's. *)

val on_retransmit_loss : t -> unit
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
