(** TCP segments as carried inside {!Smapp_netsim.Packet} payloads.

    Payload bytes are counted, not materialised: a data segment carries the
    length and the 64-bit stream offset ("data sequence number") its bytes
    map to. For plain TCP the offset is simply the connection byte offset;
    Multipath TCP reuses it as the DSS data sequence number, which is exactly
    how the real protocol maps subflow bytes onto the meta stream.

    [options] is extensible so the MPTCP library can define MP_CAPABLE,
    MP_JOIN, ADD_ADDR, ... without a dependency cycle.

    Segments are pooled ({!Smapp_sim.Arena}): {!stamp}, the one
    constructor, reuses a domain-local slot and {!to_packet} restamps the
    slot's own packet, so no send path allocates. A received segment is
    valid until the consuming stack returns from processing it, at which
    point the stack calls {!release}; a dropped one goes back when the
    network drops it. Holding a segment across events is
    a use-after-free, detectable in conformance (debug) runs via the
    generation stamp (see {!is_live} and [Tcb.handle_segment]'s
    tripwire). *)

open Smapp_netsim

type tcp_option = ..
(** Extended by upper layers; each constructor is one TCP option. *)

type mapping = {
  mutable dsn : int;  (** stream offset of the first payload byte *)
  mutable len : int;  (** payload byte count, > 0 *)
}

type t = {
  mutable flow : Ip.flow;
  mutable syn : bool;
  mutable ack : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable seq : Seq32.t;  (** subflow sequence of first payload byte (or of SYN/FIN) *)
  mutable ack_seq : Seq32.t;  (** valid when [ack] *)
  mutable window : int;
  mutable sack_count : int;
      (** selective acknowledgement blocks carried, at most RFC 2018's
          four; read them with {!sack_lo}/{!sack_hi} *)
  mutable payload : mapping option;
  mutable options : tcp_option list;
  mutable s_gen : int;  (** pool plumbing: generation stamp — read via {!generation} *)
  s_sack : Seq32.t array;
      (** pool plumbing: slot-owned SACK blocks, [lo0; hi0; lo1; ...] *)
  s_map : mapping;  (** pool plumbing: slot-owned mapping, aliased by [payload] *)
  s_some : mapping option;  (** pool plumbing: the reused [Some s_map] cell *)
  s_pkt : Packet.t;  (** pool plumbing: slot-owned carrier, restamped by {!to_packet} *)
}
(** Fields are mutable for pooled reuse; treat a segment as immutable
    while it is in flight. The [s_]-prefixed fields belong to the pool
    machinery — never touch them directly. *)

val stamp :
  flow:Ip.flow ->
  syn:bool ->
  ack:bool ->
  fin:bool ->
  rst:bool ->
  seq:Seq32.t ->
  ack_seq:Seq32.t ->
  window:int ->
  dsn:int ->
  len:int ->
  options:tcp_option list ->
  t
(** Build a segment in a pooled slot, every field overwritten. Every
    argument is required, so no call site boxes a [Some], and the payload
    mapping is passed as plain [~dsn]/[~len] ints, copied into the slot's
    own mapping ([len = 0] means no payload). The segment starts with no
    SACK blocks; {!add_sack} adds them. *)

val add_sack : t -> Seq32.t -> Seq32.t -> unit
(** [add_sack t lo hi] appends the block [\[lo, hi)] (wire space) to the
    slot's own array, which has room for four; raises [Invalid_argument]
    past that. *)

val sack_lo : t -> int -> Seq32.t
(** [sack_lo t i]: left edge of block [i < t.sack_count]. *)

val sack_hi : t -> int -> Seq32.t
(** [sack_hi t i]: right edge (exclusive) of block [i]. *)

val payload_len : t -> int

val seq_span : t -> int
(** Sequence space the segment consumes: payload + 1 per SYN/FIN flag. *)

type Packet.payload += Tcp of t

val to_packet : t -> Packet.t
(** The slot's own carrier packet, restamped with the segment's current
    flow and wire size. One wire copy per segment: a segment must not be
    put on two links at once (the datapath never does — routers forward
    the one packet). *)

val of_packet : Packet.t -> t option

val release : t -> unit
(** Return a pooled segment's slot for reuse, clearing everything
    heap-retaining (options, payload alias) and the SACK count. Called by
    the final consumer: {!Stack.receive} after the TCB has processed the
    segment, or, through its packet's [Packet.free], the link, host or
    router that drops it. So a segment handed to a TCB's [tx] may be back
    in the pool when [tx] returns. Raises [Bug] on a double release. *)

val is_live : t -> bool
(** False once {!release} has retired the slot (and until {!stamp} revives
    it): the use-after-free test conformance hooks apply in debug runs. *)

val generation : t -> int
(** The slot's {!Smapp_sim.Arena.Gen} stamp (even = live, odd =
    retired). *)

val pool_stats : unit -> Smapp_sim.Arena.stats
(** Stats of the calling domain's segment pool. *)
