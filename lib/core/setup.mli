(** One-call wiring of the control plane onto a host: creates the Netlink
    channel, attaches the in-kernel Netlink path manager to the endpoint,
    and hands back the userspace PM library that controllers program
    against. *)

open Smapp_mptcp

type t = {
  kernel_pm : Kernel_pm.t;
  pm : Pm_lib.t;
  channel : Smapp_netlink.Channel.t;
}

val attach : ?profile:Smapp_netlink.Channel.fault_profile -> Endpoint.t -> t
(** [profile] configures channel fault injection (default
    {!Smapp_netlink.Channel.reliable}). *)
