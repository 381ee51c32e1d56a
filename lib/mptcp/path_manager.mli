(** The in-kernel path managers shipped with the Linux Multipath TCP stack
    (paper §2): [full-mesh] and [ndiffports]. These are the baselines the
    userspace subflow controllers are compared against; they run "inside the
    kernel", i.e. they react to connection events synchronously with no
    messaging latency.

    A path manager is installed on every client connection of an endpoint
    via {!auto_install}. Like the Linux ones, they only ever create
    subflows on the client side. *)

open Smapp_sim

type t
(** A path-manager blueprint. *)

val fullmesh : unit -> t
(** Create one subflow for every (local address x remote address) pair, as
    soon as the connection is established, the peer announces an address
    (ADD_ADDR), or a local interface comes up. Like the kernel path
    manager, a pair is created at most once per connection. *)

val ndiffports : n:int -> t
(** Create [n] subflows (including the initial one) over the same address
    pair with distinct random source ports, immediately after
    establishment — the datacenter/ECMP path manager. *)

val mesh_sweep : Connection.t -> unit
(** One immediate, synchronous fullmesh pass: create a subflow for every
    (local address x known remote address) pair not already covered by an
    existing subflow. No-op unless the connection is an established
    client. This is the meshing primitive behind {!fullmesh} for
    already-established connections and behind the Netlink path manager's
    watchdog fallback ({!Smapp_core.Kernel_pm.enable_watchdog}). *)

val auto_install : t -> Endpoint.t -> unit
(** Attach to every present and future client connection of the endpoint. *)

val creation_delay : Time.span
(** The in-kernel reaction latency we charge between an event and the SYN of
    the subflow it triggers (a few microseconds of kernel work). Fig 3
    compares this against the netlink round trip of the userspace manager. *)
