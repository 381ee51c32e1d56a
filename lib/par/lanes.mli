(** A persistent barrier pool: the domains behind sharded-window
    execution and {!Sweep.map}.

    [Lanes] keeps [domains - 1] worker domains parked on a condition
    variable and runs one {e round} per call: shard [s] executes on lane
    [s mod domains] (the caller is lane 0), every lane walks its slice in
    index order, and the caller returns only after all lanes reach the
    barrier. Parked workers still take part in every stop-the-world
    minor collection, so create a pool around the work that uses it and
    shut it down afterwards.

    The static placement means a shard is always driven by the same lane,
    so shard-local state needs no synchronisation beyond the round's
    mutex-mediated start/finish edges (which give the happens-before for
    the orchestrator to read lane results between rounds). If jobs raise,
    the exception of the lowest-indexed failing shard is re-raised with
    its backtrace on the caller after the barrier.

    Drives the [?lanes] argument of {!Smapp_sim.Shard.run} — window
    results are identical whether lanes run sequentially or in parallel,
    because determinism comes from the window protocol, not the
    schedule — and the pooled {!Sweep.map}. *)

type t

val create : domains:int -> t
(** Spawn [domains - 1] parked workers. Raises [Invalid_argument] if
    [domains < 1]. [domains = 1] spawns nothing: {!run} degenerates to a
    sequential loop on the caller. *)

val domains : t -> int

val run : t -> shards:int -> (int -> unit) -> unit
(** [run t ~shards f] executes [f s] once for every [s] in [[0, shards)]
    across the lanes and returns after the barrier. Raises
    [Invalid_argument] on a shut-down pool. *)

val shutdown : t -> unit
(** Wake and join the workers. Idempotent; later {!run} calls raise. *)

val is_shut_down : t -> bool
