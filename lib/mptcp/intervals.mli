(** Sets of disjoint half-open integer intervals.

    Used to track which data-sequence ranges of a Multipath TCP connection
    have been acknowledged, so reinjection never duplicates delivered data.

    A view of {!Smapp_tcp.Reasm} (a set whose stream offsets equal its
    sequence offsets): {!add}, {!covered} and {!contiguous_from}, the
    per-ACK operations, allocate nothing once the set has room;
    {!subtract} and {!ranges}, for reinjection, build lists. *)

type t

val create : unit -> t
val add : t -> int -> int -> unit
(** [add t lo hi] inserts [\[lo, hi)]. Overlaps and adjacency are merged.
    Empty or negative ranges are ignored. *)

val mem : t -> int -> bool
val covered : t -> int -> int -> bool
(** Is [\[lo, hi)] entirely contained? *)

val subtract : t -> int -> int -> (int * int) list
(** [subtract t lo hi]: the parts of [\[lo, hi)] NOT in the set, in order. *)

val contiguous_from : t -> int -> int
(** [contiguous_from t x]: the first integer >= [x] not in the set — e.g.
    the meta-level snd_una given [x] = start of stream. *)

val total : t -> int
val ranges : t -> (int * int) list
