open Smapp_netsim
open Smapp_tcp

type Segment.tcp_option +=
  | Mp_capable of { key : Crypto.key }
  | Mp_join of { token : int; nonce : int64; addr_id : int; backup : bool }
  | Mp_join_synack of { hmac : string; nonce : int64; addr_id : int; backup : bool }
  | Mp_join_ack of { hmac : string }
  | Add_addr of { addr_id : int; addr : Ip.t; port : int }
  | Remove_addr of { addr_id : int }
  | Mp_prio of { backup : bool }
  | Mp_fastclose of { key : Crypto.key }
