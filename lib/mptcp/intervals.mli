(** Sets of disjoint half-open integer intervals.

    Used to track which data-sequence ranges of a Multipath TCP connection
    have been acknowledged, so reinjection never duplicates delivered data.

    A view of {!Smapp_tcp.Reasm} (a set whose stream offsets equal its
    sequence offsets). Nothing allocates once the set has room: not
    {!add}, {!covered} and {!contiguous_from}, the per-ACK operations,
    and not {!iter_holes}, which reinjection walks in place. *)

type t

val create : unit -> t
val add : t -> int -> int -> unit
(** [add t lo hi] inserts [\[lo, hi)]. Overlaps and adjacency are merged.
    Empty or negative ranges are ignored. *)

val mem : t -> int -> bool
val covered : t -> int -> int -> bool
(** Is [\[lo, hi)] entirely contained? *)

val iter_holes : t -> int -> int -> ('a -> int -> int -> unit) -> 'a -> unit
(** [iter_holes t lo hi f x] calls [f x a b] on each maximal part
    [\[a, b)] of [\[lo, hi)] that is NOT in the set, in ascending order. *)

val contiguous_from : t -> int -> int
(** [contiguous_from t x]: the first integer >= [x] not in the set — e.g.
    the meta-level snd_una given [x] = start of stream. *)

val total : t -> int
