(** One subflow of a Multipath TCP connection: a TCP control block plus
    its id within the connection, whether it is the initial one, and its
    MP_JOIN handshake's nonces. *)

open Smapp_netsim
open Smapp_tcp

type t = {
  id : int;  (** unique within the connection *)
  tcb : Tcb.t;
  is_initial : bool;
  local_nonce : int64;  (** this end's MP_JOIN nonce; 0 on an initial subflow *)
  mutable remote_nonce : int64;  (** the peer's, once [nonce_known] *)
  mutable nonce_known : bool;  (** a server's join at creation, a client's on a verified SYN/ACK *)
}

val flow : t -> Ip.flow
val info : t -> Tcp_info.t
val established : t -> bool
val is_backup : t -> bool
val srtt_ns : t -> int
(** {!Smapp_tcp.Tcb.srtt_ns}: nanoseconds, 0 before the first sample. *)

val window_space : t -> int
(** Bytes of congestion/flow-control window still open for new data
    ({!Smapp_tcp.Tcb.available_window}). *)

val pp : Format.formatter -> t -> unit
