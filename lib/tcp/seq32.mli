(** 32-bit TCP sequence numbers with wrap-around arithmetic (RFC 793).

    Comparisons are modular: [lt a b] means [a] precedes [b] assuming the two
    are within half the sequence space of each other, which TCP's window
    rules guarantee. *)

type t = private int
(** Always in [\[0, 2^32)]. *)

val zero : t
val of_int : int -> t
(** Reduces modulo 2^32. *)

val to_int : t -> int

val add : t -> int -> t
(** Advance by a byte count (may be negative). *)

val diff : t -> t -> int
(** [diff a b] is the signed modular distance [a - b], in
    [\[-2^31, 2^31)]. *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool

val compare : t -> t -> int
(** Wraparound-aware total-ish order: the sign of {!diff}. Unlike
    [Stdlib.compare] on the raw ints, [compare a b < 0] holds whenever [a]
    precedes [b] across the 2^32 boundary. Antisymmetric for values within
    half the sequence space of each other (the TCP window guarantee). *)

val min : t -> t -> t
val max : t -> t -> t
(** Earlier/later of two values under the modular order. *)
