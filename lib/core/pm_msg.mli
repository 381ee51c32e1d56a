(** The Netlink family spoken between the in-kernel path manager and
    userspace subflow controllers: events, commands, replies, and their
    wire codecs (paper §3).

    Connections are identified by their 32-bit MPTCP token, subflows by a
    small integer id unique within the connection — exactly the handles a
    real controller would hold, with no OCaml pointers crossing the
    boundary. *)

open Smapp_sim
open Smapp_netsim
open Smapp_tcp

(** {1 Events (kernel -> userspace)} *)

type event =
  | Created of { token : int; flow : Ip.flow; sub_id : int }
      (** a connection exists (initial SYN sent or received) *)
  | Estab of { token : int }  (** three-way handshake completed *)
  | Closed of { token : int }
  | Sub_estab of { token : int; sub_id : int; flow : Ip.flow; backup : bool }
  | Sub_closed of { token : int; sub_id : int; flow : Ip.flow; error : Tcp_error.t option }
  | Timeout of { token : int; sub_id : int; rto : Time.span; count : int }
      (** a retransmission timer expired; [rto] is the new backed-off value *)
  | Add_addr of { token : int; addr_id : int; endpoint : Ip.endpoint }
  | Rem_addr of { token : int; addr_id : int }
  | New_local_addr of { addr : Ip.t; ifname : string }
  | Del_local_addr of { addr : Ip.t; ifname : string }

val event_kinds : int
(** The number of event constructors: every {!event_bit} is below it. *)

(** Subscription mask bits, one per event constructor. *)
module Mask : sig
  val created : int
  val estab : int
  val closed : int
  val sub_estab : int
  val sub_closed : int
  val timeout : int
  val add_addr : int
  val rem_addr : int
  val new_local_addr : int
  val del_local_addr : int

  val all : int
  (** Every event's bit: the low {!event_kinds} bits. *)
end

val mask_of_event : event -> int

val event_bit : event -> int
(** The index of the event's one mask bit: [mask_of_event ev = 1 lsl event_bit ev]. *)

(** {1 Commands (userspace -> kernel)} *)

type command =
  | Subscribe of { mask : int }
  | Create_subflow of {
      token : int;
      src : Ip.t;
      src_port : int option;  (** [None] = ephemeral *)
      dst : Ip.endpoint;
      backup : bool;
    }
  | Remove_subflow of { token : int; sub_id : int }
  | Set_backup of { token : int; sub_id : int; backup : bool }
  | Get_sub_info of { token : int; sub_id : int }
  | Get_conn_info of { token : int }
  | Dump
      (** full kernel state snapshot ([R_dump]): the resynchronisation
          primitive a controller issues after an event-sequence gap or a
          daemon restart *)
  | Keepalive
      (** liveness beacon for the kernel watchdog; replied with [Ack] *)

(** {1 Replies (kernel -> userspace, matched by sequence number)} *)

type conn_info = {
  ci_token : int;
  ci_bytes_sent : int;
  ci_bytes_acked : int;  (** contiguously acknowledged stream prefix *)
  ci_bytes_received : int;
  ci_subflow_count : int;
  ci_send_buffer : int;
}

type sub_snapshot = { ss_sub_id : int; ss_flow : Ip.flow; ss_backup : bool }

type conn_snapshot = {
  cs_token : int;
  cs_initial_flow : Ip.flow;
  cs_established : bool;
  cs_subs : sub_snapshot list;  (** established subflows only *)
}

type reply =
  | Ack
  | Error of string
  | R_sub_info of int * Tcp_info.t
      (** [Get_sub_info]'s answer: the subflow's id and its {!Tcp_info.t},
          the kernel's own snapshot (paper §3). The pacing rate crosses as
          whole bytes per second. *)
  | R_conn_info of conn_info
  | R_dump of conn_snapshot list

(** {1 Wire codecs}

    Each message is written straight into its bytes and read where it lies
    ({!Smapp_netlink.Wire}). *)

val encode_event : seq:int -> event -> string

val encode_command : ?key:int -> seq:int -> command -> string
(** [key] is the idempotency key: retransmissions of one logical command
    reuse the key so the kernel can deduplicate re-execution. *)

val encode_reply : seq:int -> reply -> string

(** Decoders of a validated {!Smapp_netlink.Wire.view}, read in place; they
    raise [Wire.Malformed] on what they cannot read. *)

val command_of_view : Smapp_netlink.Wire.view -> command

val command_key : Smapp_netlink.Wire.view -> int
(** The command's idempotency key, or [-1] when it has none. *)

val is_event : Smapp_netlink.Wire.view -> bool

val event_of_view : Smapp_netlink.Wire.view -> event
val reply_of_view : Smapp_netlink.Wire.view -> reply

val errno_code : Tcp_error.t -> int
(** The Linux errno value (e.g. ETIMEDOUT = 110). *)

val errno_of_code : int -> Tcp_error.t option
(** [errno_of_code 0] is [None] (clean close). *)
