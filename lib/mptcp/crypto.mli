(** Keys, tokens and HMACs of RFC 6824 §3.

    Each end of an MPTCP connection owns a random 64-bit key exchanged in
    MP_CAPABLE. The 32-bit connection token that MP_JOIN uses to address a
    connection is the high 32 bits of SHA-1(key); joins are authenticated
    with HMAC-SHA1 over the handshake nonces. *)

type key = int64

val generate_key : Smapp_sim.Rng.t -> key

val token : key -> int
(** High 32 bits of SHA-1(key), as a non-negative int. *)

val idsn : key -> int
(** Initial data sequence number: low 61 bits of SHA-1(key) (we keep DSNs in
    a native int, so we truncate the RFC's 64 bits to stay positive). *)

val join_hmac : local_key:key -> remote_key:key -> local_nonce:int64 -> remote_nonce:int64 -> string
(** HMAC-SHA1(KeyLocal || KeyRemote, NonceLocal || NonceRemote) — the sender
    of an MP_JOIN SYN/ACK or third ACK computes this with its own key and
    nonce first; the receiver mirrors the arguments to verify. *)
