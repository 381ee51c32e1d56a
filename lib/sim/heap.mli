(** A mutable binary min-heap, generic in the element type.

    Used by the engine's event queue; exposed for reuse and direct testing.
    The ordering function is fixed at creation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val add : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)
