(** Network packets.

    The payload is an extensible variant so the transport layer (a separate
    library) can inject its own segment type without a dependency cycle. *)

type payload = ..
type payload += Raw of string  (** for tests and non-TCP traffic *)

type t = {
  mutable flow : Ip.flow;
  mutable size : int;  (** total on-wire size in bytes, headers included *)
  mutable payload : payload;
}
(** Fields are mutable so pooled carriers ({!Smapp_tcp.Segment}'s
    slot-owned packet) can be restamped without allocating; everyone
    else treats a packet as immutable for its in-flight lifetime. *)

val make : flow:Ip.flow -> size:int -> payload -> t
(** [size] must be positive. *)

type payload += Icmp_unreachable of Ip.flow
(** Network-layer "destination unreachable" carrying the original packet's
    flow, generated by routers with no usable route ({!Router}). *)

val icmp_size : int
