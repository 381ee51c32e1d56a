(** The Netlink wire format (RFC 3549): length-prefixed messages with a
    16-byte header followed by type-length-value attributes, 4-byte aligned.

    The paper's path manager defines a new Netlink family; its events and
    commands are serialized with this module, so the kernel/userspace split
    is a real byte-level boundary in this reproduction too. *)

type header = {
  msg_type : int;  (** u16: family-specific message type *)
  flags : int;  (** u16 *)
  seq : int;  (** u32: request/response correlation *)
  pid : int;  (** u32: originating port id *)
}

type attr_value =
  | U8 of int
  | U32 of int
  | U64 of int64
  | Str of string

type attr = { attr_type : int; value : attr_value }

type msg = { header : header; attrs : attr list }

val encode : msg -> string
(** Serialized message: nlmsghdr (len, type, flags, seq, pid) then aligned
    attributes. Attribute values carry a one-byte kind tag in front of the
    payload so decoding is self-describing. *)

val decode : string -> (msg, string) result
(** Inverse of [encode]. Fails with a message on truncated or malformed
    input. *)

val encode_batch : msg list -> string
(** Concatenate messages, as netlink sockets do. *)

val decode_batch : string -> (msg list, string) result

(* attribute lookup helpers *)
val get_u32 : msg -> int -> (int, string) result
val get_u64 : msg -> int -> (int64, string) result
val get_u8 : msg -> int -> (int, string) result
val get_str : msg -> int -> (string, string) result

val get_strs : msg -> int -> string list
(** Every [Str] attribute of the given type, in order — netlink allows
    repeated attributes, used here for nested snapshot lists. *)
