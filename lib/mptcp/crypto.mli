(** Keys, tokens and HMACs of RFC 6824 §3.

    Each end of an MPTCP connection owns a random 64-bit key exchanged in
    MP_CAPABLE. The 32-bit connection token that MP_JOIN uses to address a
    connection is the high 32 bits of SHA-1(key); joins are authenticated
    with HMAC-SHA1 over the handshake nonces. Keys and nonces are hashed as
    big-endian bytes.

    As in Linux, a token is derived once per key: when the key is drawn
    ({!draw_key}) or received from the peer. A drawn key whose token is
    already in use on the endpoint is redrawn. *)

type key = int64

val draw_key : Smapp_sim.Rng.t -> in_use:(int -> bool) -> key * int
(** A fresh random key and its token. Draws again while [in_use] holds
    for the token, so no two live connections of one endpoint share a
    token. *)

val token : key -> int
(** High 32 bits of SHA-1(key), as a non-negative int. Allocates nothing. *)

val join_hmac : local_key:key -> remote_key:key -> local_nonce:int64 -> remote_nonce:int64 -> string
(** HMAC-SHA1(KeyLocal || KeyRemote, NonceLocal || NonceRemote) — the sender
    of an MP_JOIN SYN/ACK or third ACK computes this with its own key and
    nonce first. Allocates only the string. *)

val join_hmac_matches :
  string -> local_key:key -> remote_key:key -> local_nonce:int64 -> remote_nonce:int64 -> bool
(** [join_hmac_matches hmac …] is [String.equal hmac (join_hmac …)], checked
    without building the string: the receiver of an HMAC mirrors the
    sender's arguments to verify it. Allocates nothing. *)
