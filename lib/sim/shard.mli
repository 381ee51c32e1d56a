(** Sharded deterministic execution: several engines advancing one scenario.

    A {e group} is a set of member engines ("shards"), each with its own
    clock, event queue, sequence counter and RNG root, plus per-pair
    ordered mailboxes for cross-shard events. {!run} drives the group with
    a conservative synchronous-window protocol (the classic
    Chandy–Misra–Bryant lookahead argument, in its barrier form):

    - the next window starts at [T], the earliest next dispatch across
      all shards ({!Engine.next_event_time}: a cancelled timer has left
      its queue, so no window starts at one), and extends for the
      {e lookahead} [L] = the minimum latency of any registered
      cross-shard edge (re-read every window, so live reconfiguration
      is honoured);
    - every shard independently executes its events in [[T, T+L)] — no
      cross-shard event posted during the window can land inside it,
      because an edge's latency is at least [L];
    - at the barrier, each destination's mail is injected into its
      engine by source shard and then in posting order; the engine's
      queue orders it by [(time, rank)] and breaks the remaining ties
      by that insertion order. The merge is therefore a pure function
      of the posted set — independent of lane scheduling, so a
      parallel run of the lanes is byte-identical to a sequential one.

    Determinism contract: each posted event carries the sender's
    canonical tie rank (see [Engine.schedule_ranked] — for link deliveries,
    (transmit-time ns, link uid, per-link serial), computable identically
    under any execution mode), and injection passes the rank through to
    the destination engine. Same-instant events therefore order by
    (rank, local scheduling order) everywhere: unranked local events keep
    the engine's documented FIFO semantics, and ranked deliveries order
    canonically whether they were scheduled locally or merged in at a
    barrier. This is what makes a sharded run bit-identical to the
    sequential one even on exact-nanosecond coincidences between causally
    independent chains.

    RNG discipline: all member engines share one construction-time root,
    so building a topology draws the same stream in the same order
    regardless of shard count; the first {!run} {e seals} the group,
    giving each shard a private runtime root split from the shared one.

    A shard installs no observability scope of its own: each window runs
    in the scope of the lane that runs it. Lanes are separate domains with
    separate domain-local scopes, so nothing races; {!Engine.run} installs
    the shard's trace clock on entry, so a traced event carries its own
    shard's time. Run the windows on one lane (the default [lanes]) to
    collect every shard's events in the caller's scope, as
    [smapp workload --trace] does. *)

type group

val single : Engine.t -> group
(** Wrap an existing engine as a one-shard group. Construction and
    execution are exactly the plain engine ({!run} is {!Engine.run}, no
    sealing): the single-shard fallback is the current engine,
    unchanged. *)

val create : ?seed:int -> shards:int -> unit -> group
(** A fresh group of [shards] engines (all seeded from [seed], default
    42, via the shared construction root). [shards = 1] is
    [single (Engine.create ~seed ())]. Raises [Invalid_argument] if
    [shards < 1]. *)

val shards : group -> int
val engine : group -> int -> Engine.t

val register_cross : group -> src:int -> dst:int -> (unit -> Time.span) -> unit
(** Declare a cross-shard edge for the lookahead computation. The thunk
    returns the edge's current minimum latency and is re-read at every
    window. Latencies must stay positive — {!run} raises {!Bug.Bug} on a
    non-positive lookahead, which would otherwise deadlock progress. *)

val post :
  group ->
  src:int ->
  dst:int ->
  time:Time.t ->
  r1:int ->
  r2:int ->
  r3:int ->
  (unit -> unit) ->
  unit
(** Mailbox a thunk for execution at [time] on shard [dst]'s engine, with
    the sender's canonical tie rank [(r1, r2, r3)] (forwarded to
    [Engine.schedule_ranked] at injection), passed as plain ints. Must be
    called from shard [src]'s lane while a window executes, with [time]
    strictly past the window's limit (guaranteed by construction when the
    posting edge was registered with its true minimum latency);
    violations raise {!Bug.Bug}.

    Each (src, dst) pair's mailbox is two growable arrays, one of keys
    (time and rank, four ints a mail) and one of thunks, drained
    oldest-first at the barrier and reused: once a box has grown to a
    window's mail, a post allocates nothing. A trunk packet's one
    allocation is the thunk [Smapp_netsim.Link] hands over. *)

val run : ?lanes:((int -> unit) -> unit) -> group -> unit
(** Advance the whole group until every queue (and mailbox) is drained.
    [lanes] executes one window: it must invoke its callback exactly once
    for every shard index in [[0, shards)], in any order or in parallel
    (the default runs them sequentially in index order); results are
    identical either way. With no registered cross edges the shards are
    causally decoupled and free-run without barriers. *)

val events_executed : group -> int
(** Sum of {!Engine.events_executed} over the members. *)

val last_event_time : group -> Time.t
(** Latest {!Engine.last_event_time} over the members: when the scenario
    last did work, unaffected by [Engine.run ~until] clock fast-forwards. *)
