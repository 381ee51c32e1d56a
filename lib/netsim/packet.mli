(** Network packets.

    The payload is an extensible variant so the transport layer (a separate
    library) can inject its own segment type without a dependency cycle. *)

type payload = ..
type payload += Raw of string  (** for tests and non-TCP traffic *)

type t = {
  mutable flow : Ip.flow;
  mutable size : int;  (** total on-wire size in bytes, headers included *)
  mutable payload : payload;
  give_back : t -> unit;
      (** what {!free} runs: a pooled carrier's return to its pool *)
}
(** Fields are mutable so pooled carriers ({!Smapp_tcp.Segment}'s
    slot-owned packet) can be restamped without allocating; everyone
    else treats a packet as immutable for its in-flight lifetime. *)

val make : flow:Ip.flow -> size:int -> payload -> t
(** [size] must be positive. The packet is not pooled: {!free} does
    nothing. *)

val free : t -> unit
(** End a packet that reaches no stack: the network calls it where it
    drops one (a full queue, random loss, a downed link, NIC or route, a
    missing receiver). A pooled carrier goes back to its pool, so the
    caller must hold the packet no more; for any other packet it does
    nothing. The only holder of a packet in flight is the link or node
    handling it, and taps run before the link. *)

type payload += Icmp_unreachable of Ip.flow
(** Network-layer "destination unreachable" carrying the original packet's
    flow, generated by routers with no usable route ({!Router}). *)

val icmp_size : int
