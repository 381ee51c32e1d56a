(** Per-job isolation capsule: a private [Smapp_obs] metrics scope, trace
    scope and profiling scope. [Sweep] wraps every pooled job in a fresh capsule so
    worker domains cannot interfere through the (otherwise domain-local
    but job-shared) observability state, and a job behaves identically
    under sequential and parallel execution. *)

type t

val create : unit -> t
(** Fresh capsule: all metrics zero, empty trace ring, clock stuck at 0
    until an engine created inside {!run} installs one. *)

val run : t -> (unit -> 'a) -> 'a
(** Run the thunk with the capsule's scopes installed on the calling
    domain; previous scopes are restored on return or raise. *)
