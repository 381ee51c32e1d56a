(** A minimal JSON emitter for machine-readable bench output.

    NaN and infinities serialize as [null] — JSON has no representation for
    them and downstream tooling must treat them as missing. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_file : string -> t -> unit
