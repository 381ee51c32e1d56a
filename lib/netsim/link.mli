(** Simplex links with rate, propagation delay, random loss and a drop-tail
    queue — the simulated equivalent of a Mininet link shaped with
    [tc netem]. A duplex cable is simply a pair of simplex links. *)

open Smapp_sim

type t

type stats = {
  mutable sent : int;      (** packets handed to the link *)
  mutable delivered : int;
  mutable lost : int;      (** random (netem) losses *)
  mutable dropped : int;   (** queue overflows and down-link drops *)
  mutable bytes_delivered : int;
}

val create :
  Engine.t ->
  rate_bps:float ->
  delay:Time.span ->
  ?loss:float ->
  ?queue_capacity:int ->
  unit ->
  t
(** [queue_capacity] is a packet count (default 100). [loss] is the random
    loss probability in [\[0,1\]] (default 0). *)

val set_dst : t -> (Packet.t -> unit) -> unit
(** Where delivered packets go. Must be called before any [send]. *)

val set_remote :
  t -> (time:Time.t -> r1:int -> r2:int -> r3:int -> (unit -> unit) -> unit) -> unit
(** Mark the link as a cross-shard trunk: instead of a local engine timer,
    each delivery is committed at transmit time by posting a thunk (which
    runs [dst pkt] on the destination shard) through the given mailbox at
    the computed delivery timestamp and the delivery's rank [(r1, r2, r3)]
    (see {!send}), passed as plain ints. The thunk is the delivery closure
    of a slot from a domain-local pool: the sending lane takes the slot
    and the delivering lane puts it back, so a trunk delivery allocates
    nothing once the pools have grown. Queueing, rate shaping, random loss
    and the up/down check at send time behave exactly as locally; the one
    semantic difference is that [set_up t false] cannot kill a packet
    already committed to the trunk — it has left this shard's causal
    horizon. [Topology] wires this up via {!Smapp_sim.Shard.post} for
    cables whose endpoints were partitioned onto different shards. *)

val send : t -> Packet.t -> unit
(** Queue a packet for transmission. Silently drops on a full queue, random
    loss, or a downed link: the transport layer sees only the absence of an
    acknowledgement, exactly as on a real wire. A dropped packet ends
    there ({!Packet.free}), as does one a cable pull kills in flight, so
    the caller must not touch it after [send]. The queue holds
    [queue_capacity] packets, counting the one transmitting; a
    transmission that ends at the current instant no longer counts, in
    whatever order same-instant events run.

    Each accepted packet is one engine event at its delivery time, ranked
    (transmit-time ns, link uid, per-link serial)
    ({!Smapp_sim.Engine.schedule_ranked}); that key alone orders a link's
    deliveries. Under an engine's tie chooser ({!Smapp_sim.Engine.create}),
    two deliveries of one link due at the same nanosecond run in either
    order. Only a delay cut while packets are in flight, or a transmission
    time that rounds to 0 ns, makes such a tie. *)

val set_loss : t -> float -> unit
val loss : t -> float
val set_delay : t -> Time.span -> unit
val delay : t -> Time.span
val set_rate : t -> float -> unit
val rate_bps : t -> float
val set_up : t -> bool -> unit
(** [set_up t false] also kills every packet currently in flight: anything
    queued or on the wire is deterministically discarded (counted in
    [stats.dropped] at its nominal delivery time) and is not resurrected if
    the link comes back up before that time — a cable pull, not a pause. *)

val is_up : t -> bool
val stats : t -> stats
