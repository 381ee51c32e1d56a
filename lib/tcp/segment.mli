(** TCP segments as carried inside {!Smapp_netsim.Packet} payloads.

    Payload bytes are counted, not materialised: a data segment carries the
    length and the 64-bit stream offset ("data sequence number") its bytes
    map to. For plain TCP the offset is simply the connection byte offset;
    Multipath TCP reuses it as the DSS data sequence number, which is exactly
    how the real protocol maps subflow bytes onto the meta stream.

    [options] is extensible so the MPTCP library can define MP_CAPABLE,
    MP_JOIN, ADD_ADDR, ... without a dependency cycle.

    Segments are pooled ({!Smapp_sim.Arena}): {!make} reuses a
    domain-local slot and {!to_packet} restamps the slot's own packet, so
    the steady-state send path allocates nothing. A received segment is
    valid until the consuming stack returns from processing it, at which
    point the stack calls {!release}; holding a segment across events is
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
  mutable sack : (Seq32.t * Seq32.t) list;
      (** selective acknowledgement blocks, [lo, hi) in wire space *)
  mutable payload : mapping option;
  mutable options : tcp_option list;
  mutable s_gen : int;  (** pool plumbing: generation stamp — read via {!generation} *)
  s_map : mapping;  (** pool plumbing: slot-owned mapping, aliased by [payload] *)
  s_some : mapping option;  (** pool plumbing: the reused [Some s_map] cell *)
  s_pkt : Packet.t;  (** pool plumbing: slot-owned carrier, restamped by {!to_packet} *)
}
(** Fields are mutable for pooled reuse; treat a segment as immutable
    while it is in flight. The [s_]-prefixed fields belong to the pool
    machinery — never touch them directly. *)

val make :
  flow:Ip.flow ->
  ?syn:bool ->
  ?ack:bool ->
  ?rst:bool ->
  seq:Seq32.t ->
  ?ack_seq:Seq32.t ->
  ?window:int ->
  ?sack:(Seq32.t * Seq32.t) list ->
  ?payload:mapping ->
  ?options:tcp_option list ->
  unit ->
  t
(** Build a segment (never a FIN: those are {!stamp}ed) in a pooled slot;
    every field is overwritten, [?payload]'s contents are copied into the
    slot's own mapping. *)

val stamp :
  flow:Ip.flow ->
  syn:bool ->
  ack:bool ->
  fin:bool ->
  rst:bool ->
  seq:Seq32.t ->
  ack_seq:Seq32.t ->
  window:int ->
  sack:(Seq32.t * Seq32.t) list ->
  dsn:int ->
  len:int ->
  options:tcp_option list ->
  t
(** Allocation-free variant of {!make}: every argument is required, so no
    call-site [Some] boxing, and the payload mapping is passed as plain
    [~dsn]/[~len] ints ([len = 0] means no payload). The TCB's
    steady-state senders use this. *)

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
    heap-retaining (options, sack, payload alias). Called by the final
    consumer — {!Stack.receive} after the TCB has processed the segment;
    segments that never reach a stack (losses, drops, kills) are simply
    left to the GC. Raises [Bug] on a double release. *)

val is_live : t -> bool
(** False once {!release} has retired the slot (and until {!make} revives
    it): the use-after-free test conformance hooks apply in debug runs. *)

val generation : t -> int
(** The slot's {!Smapp_sim.Arena.Gen} stamp (even = live, odd =
    retired). *)

val pool_stats : unit -> Smapp_sim.Arena.stats
(** Stats of the calling domain's segment pool. *)
