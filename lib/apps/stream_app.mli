(** The §4.3 streaming workload: the sender emits one 64 KiB block every
    second and expects each block delivered within that second; the
    receiver timestamps the completion of every block against the sender's
    schedule. *)

open Smapp_mptcp

type sender

val sender : Connection.t -> blocks:int -> unit -> sender
(** Starts at establishment: block [k] is sent [k] seconds after the
    establishment time. The connection closes after the last block. *)

val blocks_sent : sender -> int

type receiver

val receiver : Connection.t -> blocks:int -> unit -> receiver
(** Records each block's completion delay: the time from the block's
    scheduled send instant (receiver clock, anchored at its own
    establishment time) to the arrival of the block's last byte. *)

val block_delays : receiver -> float list
(** Completion delays in seconds, in block order, for blocks fully
    received so far. *)

val blocks_completed : receiver -> int
