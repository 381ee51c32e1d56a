(** A first-in first-out queue of values: a netlink direction's messages
    in flight, or the kernel's commands waiting for its work step. It
    starts with no room and doubles it (to at least 4) when a push finds
    it full; otherwise push and pop allocate nothing. A popped cell holds
    {!create}'s filler again. Queues of ints are {!Ring}s. *)

type 'a t

val create : 'a -> 'a t
(** [create fill]: an empty queue whose empty cells hold [fill]. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** [push q x] appends [x]. *)

val pop : 'a t -> 'a
(** Remove and return the front value of a non-empty queue. *)
