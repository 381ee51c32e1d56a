(** A field read inside its unit and one never read: the first is clean,
    the second is dead-field, however the .cmt and .cmti number them. *)

type pad = int
type t = { unread : int; read_here : int }

val get : t -> int
val make : int -> t
