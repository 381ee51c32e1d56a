(** Internal-invariant failures.

    [Bug] marks a broken internal invariant — a state no input should be
    able to reach — as opposed to [Invalid_argument] (caller error) or
    [Failure] (environment/resource condition). The typed analysis
    ([Smapp_check.Analysis], rule naked-failwith) flags naked
    [failwith]/[assert false] in library code; raising through here
    instead forces a message that names the violated invariant. *)

exception Bug of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Bug} with a formatted description of the violated invariant. *)

val check : bool -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [check cond fmt ...] raises {!Bug} when [cond] is false. *)
