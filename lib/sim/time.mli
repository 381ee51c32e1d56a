(** Simulated time.

    Time is a count of nanoseconds since the start of the simulation, held in
    a native [int] (63 bits on 64-bit platforms: enough for ~292 years of
    simulated time). Using integers keeps the simulation deterministic:
    event ordering never depends on floating-point rounding. *)

type t = private int
(** A point in simulated time, in nanoseconds since the origin. *)

type span = private int
(** A duration in nanoseconds. Spans may be negative (e.g. differences). *)

val zero : t
(** The simulation origin. *)

val of_ns : int -> t
val to_ns : t -> int

val span_ns : int -> span
val span_us : int -> span
val span_ms : int -> span
val span_s : int -> span

val span_of_float_s : float -> span
(** [span_of_float_s s] converts seconds to a span, rounding to the nearest
    nanosecond. *)

val span_of_bits : int -> rate_bps:float -> span
(** [span_of_bits bits ~rate_bps] is the time [bits] take at [rate_bps]:
    exactly [span_of_float_s (float_of_int bits /. rate_bps)], but it
    allocates nothing, where that call boxes its float argument. *)

val span_to_ns : span -> int
val span_to_float_s : span -> float

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val span_add : span -> span -> span
val span_sub : span -> span -> span
val span_scale : int -> span -> span
val span_divide : span -> int -> span
val span_double : span -> span
val span_zero : span
val span_max : span -> span -> span
val span_min : span -> span -> span

val compare_span : span -> span -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val to_float_s : t -> float

val pp : Format.formatter -> t -> unit
(** Prints as seconds with microsecond precision, e.g. ["1.000023s"]. *)

val pp_span : Format.formatter -> span -> unit
