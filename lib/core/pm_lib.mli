(** The userspace path-manager library (paper §3, "1900 lines of C").

    "Writing code to send and receive Netlink events can be complex for
    application developers. To ease the development of subflow controllers,
    we abstract all the complexity of handling Netlink in a library" — this
    module is that library: it owns the userspace end of the Netlink
    channel, encodes commands, decodes events and replies, correlates
    request/response by sequence number, and dispatches callbacks.

    The channel is lossy ({!Smapp_netlink.Channel.fault_profile}), so the
    library also implements the recovery protocol that makes controllers
    survivable: commands are retransmitted with capped exponential backoff
    ({!Retry}) under per-command idempotency keys (a retried
    [create_subflow] whose ack was lost does not double-create); event
    sequence numbers detect lost events and duplicate deliveries; a
    detected gap or a daemon restart pulls a full kernel snapshot
    ([Dump]) that {!on_resync} subscribers reconcile against.

    Subflow controllers ({!Smapp_controllers}) are written exclusively
    against this interface plus timers; they never touch kernel objects. *)

open Smapp_sim
open Smapp_netsim

type t

val create : Engine.t -> Smapp_netlink.Channel.t -> t
(** Commands retransmit on {!Retry.command_default}; a detected event gap
    issues a [Dump]. *)

val engine : t -> Engine.t
(** The userspace process's event loop, for controller timers. *)

(** {1 Events} *)

val on_event : t -> mask:int -> (Pm_msg.event -> unit) -> unit
(** Register a callback for the event kinds in [mask] ({!Pm_msg.Mask});
    updates the kernel-side subscription to the union of all registrations.
    "The subflow controller receives only notifications for events it
    registered to." *)

val on_resync : t -> (Pm_msg.conn_snapshot list -> unit) -> unit
(** Called with the full kernel state whenever a resynchronisation
    completes (after an event gap or a daemon restart). {!Conn_view}
    registers here to reconcile its mirror. *)

(** {1 Commands} *)

val create_subflow :
  t ->
  token:int ->
  src:Ip.t ->
  ?src_port:int ->
  dst:Ip.endpoint ->
  ?backup:bool ->
  ?on_result:((unit, string) result -> unit) ->
  unit ->
  unit
(** Ask the kernel to open a subflow over an arbitrary four-tuple. *)

val remove_subflow : t -> token:int -> sub_id:int -> unit -> unit

val set_backup :
  t ->
  token:int ->
  sub_id:int ->
  backup:bool ->
  ?on_result:((unit, string) result -> unit) ->
  unit ->
  unit

val get_sub_info :
  t -> token:int -> sub_id:int -> ((Pm_msg.sub_info, string) result -> unit) -> unit
(** Asynchronous TCP_INFO-style query; the callback fires when the reply
    crosses back from the kernel. *)

val get_conn_info :
  t -> token:int -> ((Pm_msg.conn_info, string) result -> unit) -> unit

val enable_keepalive : t -> interval:Time.span -> unit
(** Send a [Keepalive] beacon every [interval] (unreliable by design: its
    absence is the kernel watchdog's death signal). *)

(** {1 Reliability counters} *)

val pending_requests : t -> int
val events_received : t -> int

val retries : t -> int
(** Command retransmissions (beyond each first send). *)

val gaps_detected : t -> int
(** Event sequence-number gaps (lost events) observed. *)

val resyncs : t -> int
(** [Dump]-based resynchronisations triggered by gaps or restarts. *)

val duplicate_events_dropped : t -> int

val restarts : t -> int
(** Daemon crash/restart cycles survived. *)
