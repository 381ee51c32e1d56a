(** Routers with static routes and flow-based equal-cost multipath.

    When a destination maps to several egress links the router picks one by
    hashing the packet's four-tuple ({!Ip.flow_hash}), like the ECMP
    load-balancers of the paper's §4.4: all packets of one subflow follow one
    path, different subflows may follow different paths, and the application
    cannot predict which. *)

type t

val create : ?salt:int -> unit -> t
(** [salt] perturbs the ECMP hash (distinct per router in real networks). *)

val add_route : t -> Ip.t -> Link.t list -> unit
(** [add_route r dst links]: packets to [dst] leave over one of [links].
    Replaces any previous route for [dst]. *)

val deliver : t -> Packet.t -> unit
(** Forward a packet; wire this as the destination of ingress links.
    No-route packets are counted and dropped. *)

val ecmp_index : t -> Ip.flow -> int -> int
(** [ecmp_index r flow n] is the path index in [\[0,n)] the hash selects —
    exposed so tests and experiments can predict path placement. *)
