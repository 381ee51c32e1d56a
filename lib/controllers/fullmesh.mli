(** The §4.1 subflow controller: a userspace reimplementation of the
    in-kernel full-mesh path manager ("about 800 lines of user space C"),
    extended with failure recovery.

    It listens to every event of §3, maintains the mesh of (local address x
    remote address) subflows, reacts to [new_local_addr]/[del_local_addr],
    and — beyond the kernel one — re-establishes failed subflows with a
    backoff chosen from the error condition: short after a RST, longer after
    an ICMP unreachable, in between after an RTO kill. This keeps long-lived
    connections alive through middlebox state loss without application
    keepalives. *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg


open Smapp_sim
open Smapp_netsim

type config = {
  local_addresses : Ip.t list;
      (** interfaces known at startup (a real controller enumerates them via
          rtnetlink); updated by address events afterwards *)
  reconnect_after_reset : Time.span;  (** ECONNRESET base, default 1 s *)
  reconnect_after_refused : Time.span;
      (** ECONNREFUSED base, default 2 s: nothing is listening, so hammering
          sooner than after a mid-connection RST buys nothing *)
  reconnect_after_unreachable : Time.span;  (** ICMP unreachable base, default 5 s *)
  reconnect_after_timeout : Time.span;  (** ETIMEDOUT base, default 3 s *)
  reconnect_max_delay : Time.span;  (** backoff cap, default 60 s *)
  max_reconnect_attempts : int;  (** per subflow, default 10 *)
}

val default_config : ?local_addresses:Ip.t list -> unit -> config

val reconnect_delay : config -> ?attempt:int -> Smapp_tcp.Tcp_error.t option -> Time.span
(** The re-establishment delay for the [attempt]-th retry (0-based) after a
    subflow died with the given errno: per-errno base doubled per attempt,
    capped at [reconnect_max_delay]. [None] (orderly close) is zero — no
    reconnection is scheduled at all. *)

type t

val start : Pm_lib.t -> config -> t

val view : t -> Conn_view.t
(** The controller's {!Conn_view} mirror (e.g. to audit it against true
    kernel state in fault-injection harnesses). *)

val subflows_created : t -> int
val reconnects_scheduled : t -> int

val stale_reconnects_suppressed : t -> int
(** Reconnects not even scheduled (or abandoned at fire time) because the
    subflow's source address had left [local_addresses] — the handover
    case: retrying from an address the host no longer owns is a storm, not
    a recovery. *)

val backoff_resets : t -> int
(** Times a subflow's re-establishment zeroed its pair's reconnect-attempt
    counter: after genuine recovery the next failure backs off from the
    per-errno base again instead of continuing up the exponential curve. *)

val local_addresses : t -> Ip.t list

(** {2 Per-connection instantiation}

    The same policy as {!start}, packaged for {!Factory.start}: each
    connection gets its own instance (own request marks and retry counters)
    while all instances share one view and subscription. *)

type mesh_state
(** Config plus counters shared by every instance a factory creates. *)

val mesh_state : config -> mesh_state

val per_conn : mesh_state -> Factory.t -> Conn_view.conn -> Factory.events
(** Use as [Factory.start pm (Fullmesh.per_conn (Fullmesh.mesh_state config))].
    Unlike {!start}, local addresses are fixed at [config.local_addresses]
    (no [new_local_addr] tracking). *)

val mesh_subflows_created : mesh_state -> int
