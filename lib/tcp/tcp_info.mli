(** A snapshot of connection state, mirroring Linux's [TCP_INFO] socket
    option — the paper's controllers poll this (snd_una for §4.3 progress,
    pacing_rate for §4.4). *)

open Smapp_sim

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

type t = {
  state : state;
  rto : Time.span;  (** current RTO including backoff *)
  srtt : Time.span option;
  snd_cwnd : int;  (** bytes *)
  ssthresh : int;
  pacing_rate : float;  (** bytes per second *)
  snd_una : int;  (** unwrapped: bytes of this subflow cumulatively acked *)
  snd_nxt : int;  (** unwrapped: next byte to send *)
  rcv_nxt : int;
  bytes_acked : int;
  bytes_received : int;
  retransmits : int;  (** current consecutive RTO backoff count *)
  total_retrans : int;
  backup : bool;  (** MP_PRIO backup flag of this subflow *)
}

val state_to_string : state -> string
