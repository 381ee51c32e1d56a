(** The Netlink wire format (RFC 3549): length-prefixed messages with a
    16-byte header followed by type-length-value attributes, 4-byte aligned.

    The paper's path manager defines a new Netlink family; its events and
    commands are serialized with this module, so the kernel/userspace split
    is a real byte-level boundary in this reproduction too.

    A message is written in one pass and read in place: there is no
    intermediate attribute list either way. A writer is a buffer from a
    domain-local pool, so the exact-size message string is all a message
    costs; writers nest, each with its own buffer. Attribute values
    carry a one-byte kind tag (u8, u32, u64, string) in front of the
    payload, so a message is self-describing. *)

(** {1 Writing} *)

type writer

val start : msg_type:int -> seq:int -> writer
(** A message with its header (length, type, flags 0, seq, pid 0) and no
    attributes yet, in a buffer taken from the domain's pool. *)

val put_bool : writer -> int -> bool -> unit
(** [put_bool w ty b] appends a u8 attribute of type [ty], 1 or 0. *)

val put_u32 : writer -> int -> int -> unit
val put_u64 : writer -> int -> int -> unit
(** A native int as 64 bits: [-1] is all ones. *)

val put_str : writer -> int -> string -> unit

val finish : writer -> string
(** The encoded message, its length field set. The buffer goes back to the
    pool: the writer is dead, and writing to it corrupts another message. *)

(** {1 Reading} *)

type view
(** One validated message. *)

exception Malformed of string

val view : string -> view
(** Validates the header, the length and every attribute's header, length
    and kind.
    @raise Malformed on truncated or malformed input or trailing bytes. *)

val msg_type : view -> int
val seq : view -> int

(** The getters read the first attribute of the given type in place.
    They raise [Malformed "attr N: missing"] or ["attr N: wrong kind"]. *)

val get_bool : view -> int -> bool
val get_u32 : view -> int -> int
val get_u64 : view -> int -> int
val get_str : view -> int -> string

val find_u32 : view -> int -> int
(** [-1] when the attribute is missing or of another kind. *)

val get_strs : view -> int -> string list
(** Every string attribute of the given type, in order: netlink allows
    repeated attributes, used here for nested snapshot lists. *)
