(** The discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Components schedule
    callbacks at absolute or relative times; [run] executes them in time
    order. Events scheduled at the same instant run in scheduling order
    (a strictly increasing sequence number breaks ties), which keeps runs
    deterministic. *)

type t

type timer
(** A re-armable timer: one owner's callback and at most one pending
    deadline. An owner builds it once ({!timer}) and arms it as often as
    it likes ({!set}), as Linux re-arms a socket's retransmission timer
    in place with [mod_timer]. *)

type tie_break =
  | Fifo  (** same-instant events run in scheduling order (the default) *)
  | Shuffle of Rng.t
      (** same-instant events run in an order drawn uniformly from [Rng];
          the race-exploration mode of [Smapp_check.Explore] *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at {!Time.zero}. [seed] (default 42) seeds the
    root RNG from which component streams are split. Installs the engine's
    virtual clock as the trace clock of the current [Smapp_obs.Scope], so
    what set-up records is stamped with it. *)

val now : t -> Time.t
val rng : t -> Rng.t

val adopt_rng : t -> Rng.t -> unit
(** Replace the engine's root RNG. [Shard] uses this to point every member
    engine of a group at one shared construction-time root (so topology
    construction draws the same stream regardless of shard count) and then
    to seal each shard with a private runtime root. Not for general use:
    swapping roots mid-run forfeits the reproducibility argument unless
    done identically on every run. *)

val fresh_uid : t -> int
(** Next id (1, 2, ...) from the engine's construction-order counter —
    the per-component key used in deterministic tie ranks (see
    {!schedule_ranked}).
    Draw at construction time only: the counter is shared across a
    {!Shard} group (see {!adopt_uids}), so runtime draws from parallel
    lanes would race. *)

val adopt_uids : t -> from:t -> unit
(** Alias this engine's uid counter to [from]'s, so one program-order
    construction sequence numbers components identically for every shard
    count. [Shard.create] applies it to every member engine. *)

val next_event_time : t -> Time.t option
(** Time of the next dispatch, or [None] when the queue is empty:
    cancelled timers leave the queue, so its earliest event always
    runs. *)

val last_event_time : t -> Time.t
(** Time of the most recently executed callback ({!Time.zero} before any
    ran). Unlike [now] this is not bumped by [run ~until]'s clock
    fast-forward, so it reports when the simulation last did work. *)

val set_tie_break : t -> tie_break -> unit
(** Choose how simultaneous events are ordered from now on. [Fifo] keeps the
    documented deterministic scheduling order; [Shuffle] randomises within
    each timestamp to surface tie-order races. *)

val split_rng : t -> Rng.t
(** An independent RNG stream for one component. *)

val timer : t -> (unit -> unit) -> timer
(** [timer t f] is an unarmed timer that runs [f] when it expires. *)

val set_callback : timer -> (unit -> unit) -> unit
(** [set_callback tm f] makes [f] what [tm] runs when it expires. For an
    owner whose callback needs the owner itself: its record holds a
    [timer t ignore], bound to the real callback once the record
    exists. *)

val set : timer -> Time.t -> unit
(** [set tm when_] arms [tm] to expire at absolute time [when_], replacing
    any pending deadline; a deadline in the past raises
    [Invalid_argument]. It dispatches exactly as a {!cancel} followed by
    a fresh {!at} would: it takes the sequence number that [at] would
    take, so ties at [when_] order as if the timer were scheduled now.
    A queued timer is re-keyed where it stands in the queue; a [set]
    allocates nothing. *)

val at : t -> Time.t -> (unit -> unit) -> timer
(** [at t when_ f] is a new {!timer} of [f], {!set} to [when_]: it runs
    at the default rank [(0, 0, 0)] (see {!schedule_ranked}). *)

val schedule : t -> Time.t -> (unit -> unit) -> unit
(** {!at} without the handle: for events that are never cancelled. Skips
    the timer handle and event record {!at} allocates per call, taking a
    pooled record instead, which is why the hot spine (link deliveries,
    netlink crossings, workload launches) and one-shot delays use it.
    Consumes the same seq/rank stream as {!set}, so the two are
    interchangeable without reordering dispatch. *)

val schedule_ranked : t -> Time.t -> r1:int -> r2:int -> r3:int -> (unit -> unit) -> unit
(** {!schedule} at an explicit rank [(r1, r2, r3)]. The rank orders
    events scheduled for the same instant: lexicographic rank first,
    then scheduling order; the default rank [(0, 0, 0)] of {!at} and
    {!schedule} sorts before any explicit one. {!Smapp_netsim.Link}
    ranks packet deliveries by (transmit-time ns, link uid, per-link
    serial) — a key computable identically under sequential and sharded
    execution — so equal-instant delivery order never depends on the
    order the scheduling calls happened to run in. Everything else
    keeps the default and the documented pure-FIFO tie order. The rank
    is passed as plain ints, so a hot-path call boxes neither a tuple
    nor an option. *)

val after : t -> Time.span -> (unit -> unit) -> timer
(** [after t d f] schedules [f] at [now t + d]. Negative [d] is clamped
    to zero. *)

val cancel : timer -> unit
(** Disarm the timer; a later {!set} arms it again. Its event leaves the
    queue, so a cancelled timer's owner is not kept alive by it.
    Cancelling an unarmed timer is a no-op. *)

val timer_active : timer -> bool
(** Armed and not yet expired. [false] inside the timer's own callback. *)

val every : t -> ?start:Time.span -> Time.span -> (unit -> [ `Continue | `Stop ]) -> timer
(** [every t ~start period f] runs [f] at [now + start] (default [period])
    and then every [period] until it returns [`Stop] or the returned handle
    is cancelled, from [f] itself too. The handle re-arms in place: no
    allocation per period. A [period] of zero or less raises
    [Invalid_argument]. *)

val run : ?until:Time.t -> t -> unit
(** Drain the queue. Stops when empty or when the clock would pass [until]
    (events after [until] stay queued, clock ends at [until]). Installs
    the engine's virtual clock as the current scope's trace clock on
    entry, so each event is traced at the time of the engine that
    dispatched it, whichever engines ran before. With observability on
    ([Smapp_obs.Scope.enabled], read once per event) it also counts each
    dispatch and brackets it for [Smapp_obs.Prof]. *)

val events_executed : t -> int
(** Total callbacks run over the engine's lifetime (across [run] calls):
    [Smapp_workload.Workload]'s and perfbench's event counts. *)
