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
  rto : Time.span;
  srtt : Time.span option;
  snd_cwnd : int;
  pacing_rate : float;
  snd_una : int;
  snd_nxt : int;
  retransmits : int;
  total_retrans : int;
  backup : bool;
}

let state_to_string = function
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RECEIVED"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"
