(** Deterministic multi-seed sweeps.

    [map ?pool f jobs] applies [f] to each job and returns the results in
    submission order. [?pool = None] (the default) is exactly
    [List.map f jobs] on the calling domain — historical sequential
    behaviour, observability side effects included. With a pool, the
    jobs run as one {!Lanes.run} round: job [i] on lane [i mod domains]
    (the caller is lane 0), each inside a fresh [Smapp_obs.Scope] (its
    own metric cells, trace ring and profile); since a seeded simulation
    never reads ambient observability state, both modes return
    byte-identical values.

    If jobs raise, the exception of the lowest-indexed failing job is
    re-raised with its backtrace after every lane has reached the
    barrier — the exception [List.map] would have surfaced first.
    Raises [Invalid_argument] on a shut-down pool, and when called with
    a pool from inside a running sweep job (nested parallelism). *)

val map : ?pool:Lanes.t -> ('a -> 'b) -> 'a list -> 'b list
