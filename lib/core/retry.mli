(** Capped exponential backoff with optional jitter — the one retry schedule
    shared by the PM library's command retransmissions, the controllers'
    subflow re-establishment timers, and the backoff experiment's expected
    RTO-doubling arithmetic. Jitter randomness comes from a caller-supplied
    {!Smapp_sim.Rng} stream so schedules stay deterministic per seed. *)

open Smapp_sim

type policy = {
  base : Time.span;  (** delay after the first attempt *)
  factor : float;  (** growth per attempt (2.0 = doubling) *)
  max_delay : Time.span;  (** backoff cap *)
  max_attempts : int;  (** total attempts before giving up *)
  jitter : float;  (** fractional jitter: delay is scaled by 1 ± jitter *)
}

val command_default : policy
(** The policy {!Pm_lib} uses for netlink command retries (10 ms base,
    doubling, 500 ms cap, 8 attempts, 10% jitter: the netlink RTT is tens of µs, so 10 ms means a lost message, and 8
    attempts stay well inside a 2 s convergence budget). *)

val delay_for : ?rng:Rng.t -> policy -> attempt:int -> Time.span
(** Backoff delay after attempt number [attempt] (0-based):
    [min (base * factor^attempt) max_delay], jittered when [rng] given. *)

val total_delay : policy -> Time.span
(** Un-jittered sum of every backoff delay — the worst-case time spent
    retrying before giving up. *)

(** {1 Timer-driven retry loops} *)

type run

val start :
  Engine.t ->
  ?rng:Rng.t ->
  policy ->
  body:(attempt:int -> unit) ->
  exhausted:(unit -> unit) ->
  unit ->
  run
(** Fire [body ~attempt:0] immediately, then re-fire with backoff until
    {!stop} is called (success) or attempts are exhausted, at which point
    [exhausted] runs instead. *)

val stop : run -> unit
(** Cancel the loop (idempotent); [exhausted] will not fire. *)

val attempts : run -> int
(** Attempts fired so far. *)

val reset : run -> unit
(** Signal partial success on a long-lived loop: the attempt counter goes
    back to zero, so the next delay restarts from [base] and exhaustion is
    pushed out by a full budget. The pending timer is left alone; a no-op
    once the loop has finished. *)
