(** A generic freelist for hot-path record reuse.

    The datapath (engine events, link pending slots, TCP segments) turns
    over millions of short-lived records per run; pooling them caps the
    per-event allocation budget that [Smapp_obs.Prof] meters (ROADMAP
    item 2). A pool is single-domain state: share one per domain (e.g.
    via [Domain.DLS]), never across domains.

    The arena does not clear slots. On reuse the client overwrites every
    field; before {!put} it drops any references that would otherwise
    keep dead heap alive. Lost slots (a record the client stops tracking
    without {!put}) simply fall back to the GC — the pool's [live] count
    stays inflated but nothing breaks. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create make] is an empty pool; [make] builds a fresh slot on a pool
    miss. *)

val take : 'a t -> 'a
(** Pop a free slot, or allocate one with [make]. The caller owns the
    slot until {!put}; the arena never hands the same slot to two owners
    (property-tested in [test_arena]). *)

val put : 'a t -> 'a -> unit
(** Park a slot for reuse. A put without a matching take on this pool is
    counted as an adoption — under parallel lanes a slot taken on the
    sending domain's pool is put back on the consuming domain's. Putting
    the same slot twice without an intervening {!take} is undefined from
    the arena's view — clients detect it with the {!Gen} protocol. *)

type stats = {
  live : int;  (** taken and not yet put back (includes lost slots) *)
  free : int;  (** slots parked in the pool *)
  fresh : int;  (** takes that missed the pool and allocated *)
  takes : int;
  puts : int;
  adopted : int;  (** puts of slots taken from another domain's pool *)
  high_water : int;  (** maximum simultaneous [live] *)
}

val stats : 'a t -> stats
(** Counters reconcile by construction:
    [takes + adopted = live + puts] — pinned in [test_arena]. *)

(** The generation-parity protocol for use-after-free detection.

    Clients stamp each slot with an [int] generation: even while live,
    odd while retired, strictly increasing. Any party that captured a
    slot reference before a retire sees a generation that fails
    [is_live] (or has moved on entirely), so FSM conformance hooks can
    reject stale segments in debug builds. *)
module Gen : sig
  val fresh : int
  (** The generation a newly built slot starts at (live). *)

  val is_live : int -> bool

  val retire : int -> int
  (** Live -> retired. Raises [Bug] on a retired generation: a double
      free. *)

  val revive : int -> int
  (** Retired -> live, on reuse out of the pool. Raises [Bug] on a live
      generation. *)
end
