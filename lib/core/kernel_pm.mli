(** The in-kernel Netlink path manager (paper §3, "1100 lines of C").

    Plugs into the same hooks as the in-kernel [fullmesh]/[ndiffports] path
    managers ({!Smapp_mptcp.Endpoint.subscribe_new_connections} and the
    per-connection event stream), serializes every subscribed event onto the
    Netlink channel, and executes the commands it receives: create subflow
    from an arbitrary four-tuple, remove subflow, set backup priority, and
    TCP_INFO-style state queries. *)

open Smapp_mptcp
open Smapp_netlink

type t

val attach : Endpoint.t -> Channel.t -> t
(** Hook the path manager into the endpoint. All present and future
    connections are covered; nothing is forwarded until a [Subscribe]
    command sets a non-zero event mask. *)

val mask : t -> int
val events_sent : t -> int
val commands_executed : t -> int

val duplicate_commands : t -> int
(** Commands already answered under the same idempotency key: the cached
    reply was replayed instead of executing twice (lost-ack retransmissions
    and channel duplication both land here). A different command under a
    key seen before executes. *)

(** {1 Watchdog}

    The kernel-side liveness monitor for the userspace controller. Any
    received command (including the unreliable [Keepalive] beacon) counts
    as life; after [wd_missed_threshold] consecutive silent intervals the
    path manager assumes the daemon is dead and degrades gracefully to an
    in-kernel fullmesh: it meshes local x remote addresses until the
    first command received afterwards hands control straight back to
    userspace. *)

type watchdog_config = {
  wd_interval : Smapp_sim.Time.span;  (** liveness check period *)
  wd_missed_threshold : int;  (** silent intervals before fallback *)
}

val enable_watchdog : t -> watchdog_config -> unit

val fallback_active : t -> bool
val fallbacks : t -> int
(** Times the watchdog declared the daemon dead. *)

val handbacks : t -> int
(** Times control was returned to a revived daemon. *)
