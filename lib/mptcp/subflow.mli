(** One subflow of a Multipath TCP connection: a TCP control block plus
    MPTCP metadata (subflow id, address id, backup priority). *)

open Smapp_sim
open Smapp_netsim
open Smapp_tcp

type t = {
  id : int;  (** unique within the connection *)
  tcb : Tcb.t;
  addr_id : int;  (** the local address id this subflow was created from *)
  is_initial : bool;
  created_at : Time.t;
  mutable established_at : Time.t option;
}

val flow : t -> Ip.flow
val info : t -> Tcp_info.t
val established : t -> bool
val is_backup : t -> bool
val srtt : t -> Time.span option
val window_space : t -> int
(** Bytes of congestion/flow-control window still open for new data
    ({!Smapp_tcp.Tcb.available_window}). *)

val pp : Format.formatter -> t -> unit
