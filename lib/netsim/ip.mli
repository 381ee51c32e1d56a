(** IPv4 addresses, endpoints and flow four-tuples. *)

type t
(** An IPv4 address. *)

val v4 : int -> int -> int -> int -> t
(** [v4 a b c d] is the address [a.b.c.d]. Each byte must be in [0, 255]. *)

val of_string : string -> t
(** Parse dotted-quad notation. Raises [Invalid_argument] on bad input. *)

val to_string : t -> string
val to_int : t -> int

val of_int : int -> t
(** Inverse of [to_int]; the low 32 bits are used. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

type endpoint = { addr : t; port : int }

val endpoint : t -> int -> endpoint
val equal_endpoint : endpoint -> endpoint -> bool
val pp_endpoint : Format.formatter -> endpoint -> unit

type flow = { src : endpoint; dst : endpoint }
(** A four-tuple identifying one TCP subflow. *)

val flow : src:endpoint -> dst:endpoint -> flow
val reverse : flow -> flow
val equal_flow : flow -> flow -> bool
val pp_flow : Format.formatter -> flow -> unit

val flow_hash : salt:int -> flow -> int
(** Direction-symmetric hash of the four-tuple: [flow_hash ~salt f] equals
    [flow_hash ~salt (reverse f)], so ECMP routers send both directions of a
    subflow down the same parallel path. Non-negative. *)

module Flow_map : Map.S with type key = flow
module Addr_map : Map.S with type key = t
