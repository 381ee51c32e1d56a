(** FIFO rings of ints, one array each and no record around it: a link's
    transmission end times, a connection's write-end offsets and its
    reinjection ranges. The ring keeps its head index and length in the
    array itself, so an owner that holds its ring in a mutable field pays
    for the array alone, and an empty ring is the shared zero-length
    array. A full ring grows by {!push}, which returns a copy with twice
    the room (at least 4); the owner stores what {!push} returns. *)

type t

val empty : unit -> t
(** The empty ring of capacity 0; it allocates nothing. *)

val length : t -> int

val get : t -> int -> int
(** [get r i]: the element [i] places from the front, [i < length r]. *)

val set : t -> int -> int -> unit
(** [set r i x] overwrites the element [i] places from the front. *)

val push : t -> int -> t
(** [push r x] appends [x] at the back and returns the ring: [r] itself,
    or a larger copy when [r] was full. *)

val pop : t -> unit
(** Drop the front element of a non-empty ring. *)
