(** A TCP control block: one subflow's full sender/receiver machinery.

    Implements the three-way handshake (with SYN retries), cumulative
    acknowledgements, immediate ACKing, RFC 6298 retransmission timeouts with
    exponential backoff and a kill threshold (Linux's [tcp_retries2]),
    fast retransmit on three duplicate ACKs with NewReno-style partial-ack
    retransmission, flow control against the peer's advertised window,
    pluggable congestion control ({!Cc}), and orderly (FIN) or abortive
    (RST) teardown.

    Data is pulled from an upper layer as [(dsn, len)] chunks ({!enqueue});
    each transmitted segment maps its bytes to the stream offsets of the
    chunk it came from, and the receive side delivers in-order
    [(dsn, len)] ranges. Plain TCP passes connection byte offsets as [dsn];
    Multipath TCP passes data sequence numbers, making a chunk exactly a DSS
    mapping.

    Queued chunks and in-flight ranges live in pooled entries from a
    domain-local {!Smapp_sim.Arena}, chained through the entries
    themselves; SACK blocks are written into the segment slot's own
    array; and the one retransmission timer (SYN retries, then the RTO)
    is built with the TCB and re-armed in place. Queueing, sending and
    acknowledging a segment allocate nothing. *)

open Smapp_sim
open Smapp_netsim

type t

type config = {
  mss : int;
  rcv_window : int;
  cc_algo : Cc.algo;
  initial_cwnd_segments : int;
  max_rto_backoffs : int;  (** consecutive RTO expirations before the subflow is killed *)
}

val default_config : config
(** mss 1400 B, rcv_window 1 MiB, Reno, IW10, 15 backoffs. Every TCB
    gives up a handshake after 6 SYN retries and keeps its RTO in
    [200 ms, 120 s], starting at 1 s ({!Rtt}). *)

type callbacks = {
  on_established : t -> unit;
  on_data : t -> dsn:int -> len:int -> unit;
      (** in-order (subflow order) stream ranges *)
  on_fin : t -> unit;  (** peer closed its direction *)
  on_can_send : t -> unit;
      (** window space available and nothing queued: upper layer may
          {!enqueue} more (re-entrant calls are safe) *)
  on_rto_event : t -> Time.span -> int -> unit;
      (** retransmission timer expired: current (backed-off) RTO and the
          consecutive-expiration count — the paper's [timeout] event *)
  on_close : t -> Tcp_error.t option -> unit;
      (** connection fully closed; [Some err] when killed *)
  on_chunk_acked : t -> dsn:int -> len:int -> unit;
      (** a whole queued chunk's bytes were cumulatively acknowledged *)
  on_options : t -> Segment.t -> unit;
      (** fired for every received segment carrying options *)
}

val null_callbacks : callbacks

val create_active :
  Engine.t ->
  tx:(Segment.t -> unit) ->
  forget:(t -> unit) ->
  flow:Ip.flow ->
  ?config:config ->
  ?backup:bool ->
  ?syn_options:Segment.tcp_option list ->
  callbacks ->
  t
(** Client side: sends the SYN immediately. [forget] runs once, just before
    [on_close]: the owning {!Stack}'s one hook, which drops the TCB. *)

val create_passive :
  Engine.t ->
  tx:(Segment.t -> unit) ->
  forget:(t -> unit) ->
  syn:Segment.t ->
  ?config:config ->
  ?synack_options:Segment.tcp_option list ->
  callbacks ->
  t
(** Server side: [syn] is the received SYN; replies SYN+ACK immediately.
    The TCB's flow is the reverse of the SYN's; [forget] as above. *)

val handle_segment : t -> Segment.t -> unit
val flow : t -> Ip.flow

(** {2 Conformance instrumentation}

    Every internal state change funnels through one point that, when
    [checks_enabled] is set, reports the (old, new) pair to
    [transition_hook]. With the flag off (the default and the release
    configuration) the cost is a single load-and-branch per transition,
    inside perfbench's untraced runs, which CI's alloc-ab job times
    against the parent. *)

val checks_enabled : bool Atomic.t
(** The one conformance switch: it also gates [Connection]'s phase and
    subflow-open hooks. *)

(* Called with the subflow's four-tuple and the (old, new) states; install
   via [Smapp_check.Fsm.install] rather than directly. Atomic (as is
   [checks_enabled]) so toggling from the main domain is safe while worker
   domains run simulations. *)
val transition_hook : (flow:Ip.flow -> Tcp_info.state -> Tcp_info.state -> unit) Atomic.t
val established : t -> bool
val info : t -> Tcp_info.t

val enqueue : t -> dsn:int -> len:int -> unit
(** Queue a chunk of [len] stream bytes starting at offset [dsn]. *)

val available_window : t -> int
(** The open send window (min of cwnd and the peer's window, minus bytes
    in flight) minus bytes already queued but untransmitted: how much
    newly [enqueue]d data would start flowing immediately. A meta layer
    must ration data to subflows by this, not by the open window alone. *)

val iter_unacked : t -> ('a -> int -> int -> unit) -> 'a -> unit
(** [iter_unacked t f x] calls [f x dsn len] on each range sent but not
    yet cumulatively acked, in the order sent, then on each range still
    queued: what a meta layer must reinject if this subflow dies. It
    walks the TCB's own chains and allocates nothing. On a closed TCB
    the chains still hold their ranges inside [on_close], and are empty
    after it. *)

val close : t -> unit
(** Orderly close: FIN after the queue drains. *)

val abort : t -> unit
(** Send RST and close immediately. *)

val kill : t -> Tcp_error.t -> unit
(** Close without emitting anything (e.g. on ICMP unreachable). *)

val set_backup : t -> bool -> unit
val is_backup : t -> bool

val srtt_ns : t -> int
(** Smoothed RTT in nanoseconds, 0 before the first sample; allocation
    free, for per-segment readers such as the scheduler. *)

val cc : t -> Cc.t
(** The congestion controller, so a meta layer can couple siblings
    ({!Cc.join} it to the connection's {!Cc.group}). The TCB keeps the
    controller's established flag and srtt current. *)

val engine : t -> Smapp_sim.Engine.t

val send_ack_with_options : t -> Segment.tcp_option list -> unit
(** Emit a bare ACK carrying the given options (ADD_ADDR, MP_PRIO, ...). *)
