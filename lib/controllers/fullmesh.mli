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
}

val default_config : ?local_addresses:Ip.t list -> unit -> config

val max_reconnect_attempts : int
(** Reconnects scheduled per subflow pair before giving up: 10. A genuine
    recovery (the pair's subflow established again) restarts the count. *)

val reconnect_delay : ?attempt:int -> Smapp_tcp.Tcp_error.t option -> Time.span
(** The re-establishment delay for the [attempt]-th retry (0-based) after a
    subflow died with the given errno: a per-errno base — RST 1 s,
    ECONNREFUSED 2 s (nothing is listening, so hammering sooner than after a
    mid-connection RST buys nothing), ETIMEDOUT 3 s, ICMP unreachable 5 s —
    doubled per attempt and capped at 60 s. [None] (orderly close) is zero:
    no reconnection is scheduled at all. *)

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

    The same policy as {!start}, [ADD_ADDR] included: every instance a
    factory creates is the handlers of one controller built on the
    factory's view. Local addresses stay [config.local_addresses], because
    a factory subscribes to no local-address events. *)

type mesh_state
(** Config plus the controller, once the first connection appears. *)

val mesh_state : config -> mesh_state

val per_conn : mesh_state -> Factory.t -> Conn_view.conn -> Factory.events
(** Use as [Factory.start pm (Fullmesh.per_conn (Fullmesh.mesh_state config))].
    Raises [Invalid_argument] when the state already serves another
    factory. *)

val mesh_subflows_created : mesh_state -> int
