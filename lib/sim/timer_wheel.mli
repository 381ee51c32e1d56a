(** A hierarchical timer wheel: the engine's event queue.

    Keys are nanosecond timestamps. Scheduling and cancelling in the
    near future (up to ~18 simulated minutes ahead) is O(1); keys beyond
    the wheel horizon, or behind the wheel's internal base, overflow to a
    binary-heap tier and cost O(log n) — far timers are the rare case in
    a busy simulation. Elements with equal keys pop in ([rank],
    insertion) order — with the default rank that is plain insertion
    order, so the engine's FIFO tie-breaking is preserved exactly. An
    element filed by {!add_reserved} counts as inserted when its sequence
    number was reserved.

    Entries are pooled: slots chain through the entries themselves and
    popped entries park on an internal freelist, and no level walk
    allocates a closure, so steady-state add/take allocates nothing while
    the overflow tier is empty. While it holds anything, each search for
    the front boxes one option. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty wheel based at time 0. [dummy] seeds the intrusive chain
    sentinel and is what {!take} returns on an empty wheel; it is never
    popped as an element. *)

val add : 'a t -> time:int -> 'a -> unit
(** [add t ~time v] inserts [v] with key [time] at the default rank
    [(0, 0, 0)] (see {!add_ranked}). *)

val add_ranked : 'a t -> time:int -> r1:int -> r2:int -> r3:int -> 'a -> unit
(** [add_ranked t ~time ~r1 ~r2 ~r3 v] inserts [v] with key [time] (>= 0;
    raises [Invalid_argument] otherwise). Keys may be in any order; keys
    below the wheel's advanced base are still served correctly, via the
    overflow tier.

    The rank [(r1, r2, r3)] orders elements within one timestamp:
    lexicographic rank first, insertion order among equal ranks. The
    engine gives network deliveries a canonical rank (transmit time,
    link id, per-link serial) so that equal-instant delivery order is a
    pure function of simulation state rather than of scheduling-call
    order — the property that makes sharded runs
    ({!Smapp_sim.Shard}) bit-identical to sequential ones. The rank is
    passed as plain ints: no tuple or option boxed per call. *)

val reserve : 'a t -> int
(** Consume the insertion sequence number the next add would take, and
    return it for a later {!add_reserved}. *)

val add_reserved : 'a t -> time:int -> seq:int -> 'a -> unit
(** {!add}, keyed by a sequence number an earlier {!reserve} returned
    instead of a fresh one: the element sorts among equal keys as if it
    had been added when [seq] was reserved. The engine's timers re-file
    a moved deadline this way. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val next_time : 'a t -> int
(** Key of the earliest element, or [-1] when empty. Allocation-free,
    unlike {!peek}. May internally advance the wheel (amortised O(1)). *)

val peek : 'a t -> (int * 'a) option
(** Earliest (key, value) without removing it. May internally advance
    the wheel (amortised O(1)). *)

val take : 'a t -> 'a
(** Remove and return the earliest element ([dummy] when empty); equal
    keys leave in (rank, insertion) order. Allocation-free: the engine's
    dispatch loop pairs this with {!next_time}. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest element with its key; equal keys pop
    in (rank, insertion) order. *)
