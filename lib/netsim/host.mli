(** End hosts with one or more network interfaces.

    A host owns NICs; each NIC has an IPv4 address and an attached outgoing
    link. The transport stack registers a single receive callback and sends
    packets by source address: the NIC owning that address transmits them.
    NIC up/down transitions are reported to listeners — this is the source of
    the paper's [new_local_addr] / [del_local_addr] path-manager events. *)

open Smapp_sim

type t
type nic

val create : Engine.t -> t
val engine : t -> Engine.t

val add_nic : t -> name:string -> addr:Ip.t -> nic
(** NICs start up but unattached. Adding a second NIC with the same address
    raises [Invalid_argument]. *)

val attach : nic -> Link.t -> unit
(** Set the NIC's outgoing link. *)

val nic_name : nic -> string
val nic_addr : nic -> Ip.t
val nic_up : nic -> bool

val set_nic_up : nic -> bool -> unit
(** Triggers address listeners when the state actually changes. *)

val nics : t -> nic list
val find_nic : t -> Ip.t -> nic option
val addresses : t -> Ip.t list
(** Addresses of NICs currently up. *)

val set_receive : t -> (Packet.t -> unit) -> unit
val deliver : t -> Packet.t -> unit
(** Entry point wired to incoming links. Packets whose destination address
    does not belong to the host, that arrive on a NIC that is down, or
    that arrive with no stack registered end here ({!Packet.free}). *)

val send : t -> Packet.t -> unit
(** Transmit via the NIC owning [pkt.flow.src.addr]; silently dropped
    ({!Packet.free}) when there is no such NIC, the NIC is down, or
    unattached. *)

val on_addr_change : t -> (nic -> [ `Up | `Down ] -> unit) -> unit

val add_tap : t -> (Packet.t -> unit) -> unit
(** Observe every packet this host transmits (tcpdump at the NIC), before
    any up/down filtering. Experiments use this to timestamp specific
    segments on the wire. *)
