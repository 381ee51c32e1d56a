(** SHA-1, implemented from scratch (FIPS 180-1).

    RFC 6824 derives connection tokens and initial data sequence numbers
    from SHA-1 over the keys exchanged in MP_CAPABLE, and authenticates
    MP_JOIN with HMAC-SHA1; no crypto package is available offline, so we
    carry our own. Tested against the FIPS vectors, RFC 2202's HMAC cases
    and hashlib digests at the one- and two-block padding edges.

    Words are native ints masked to 32 bits, and every mutable word of a
    hash lives in its domain's one scratch: a hash allocates at most its
    20-byte result, whatever the input's length. *)

val digest : string -> string
(** 20-byte raw digest. *)

val hex : string -> string
(** Hex-encoded digest of the input. *)

val hmac : key:string -> string -> string
(** HMAC-SHA1 (RFC 2104), 20-byte raw output. *)

(** {2 One-block inputs written in place}

    RFC 6824 hashes fixed-width keys and nonces. A caller takes its
    domain's scratch, writes them straight into its blocks and hashes
    there, with no intermediate string. Every hash on the domain, {!digest}
    and {!hmac} included, takes the same scratch: read a result before the
    next hash. *)

type scratch

val take : unit -> scratch
(** This domain's scratch, both blocks zeroed. *)

val key_block : scratch -> Bytes.t
(** The 64-byte HMAC key block: a key of up to 64 bytes, zero-padded. *)

val msg_block : scratch -> Bytes.t
(** The 64-byte message block. *)

val digest_msg : scratch -> int -> unit
(** [digest_msg s n] hashes the first [n] (≤ 64) bytes of [msg_block s];
    read the digest with {!word}. *)

val word : scratch -> int -> int
(** [word s i] is word [i] (0–4) of the digest {!digest_msg} computed:
    digest bytes [4i .. 4i+3], big-endian, as a non-negative int. *)

val hmac_msg : scratch -> int -> string
(** [hmac_msg s n] is HMAC-SHA1 keyed by [key_block s] over the first [n]
    (≤ 64) bytes of [msg_block s], 20-byte raw output. *)

val hmac_msg_equal : scratch -> int -> string -> bool
(** [hmac_msg_equal s n mac] is [String.equal mac (hmac_msg s n)], checked
    against the digest words without building the string. *)
