(** The Multipath TCP options of RFC 6824, as extensions of the TCP
    substrate's option variant. *)

open Smapp_netsim
open Smapp_tcp

type Segment.tcp_option +=
  | Mp_capable of { key : Crypto.key }
      (** on SYN (client key) and SYN+ACK (server key) *)
  | Mp_join of { token : int; nonce : int64; addr_id : int; backup : bool }
      (** on the SYN of an additional subflow *)
  | Mp_join_synack of { hmac : string; nonce : int64; addr_id : int; backup : bool }
  | Mp_join_ack of { hmac : string }
  | Add_addr of { addr_id : int; addr : Ip.t; port : int }
  | Remove_addr of { addr_id : int }
  | Mp_prio of { backup : bool }
      (** change this subflow's backup status mid-connection *)
  | Mp_fastclose of { key : Crypto.key }

val find_capable : Segment.tcp_option list -> Crypto.key option
val find_join : Segment.tcp_option list -> (int * int64 * int * bool) option
(** (token, nonce, addr_id, backup) *)
