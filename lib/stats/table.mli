(** Fixed-width ASCII tables for experiment reports. *)

type t

val create : string list -> t
(** [create headers]. *)

val add_row : t -> string list -> unit
(** Row arity must match the header arity. *)

val to_string : t -> string
