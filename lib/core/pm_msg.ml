open Smapp_sim
open Smapp_netsim
open Smapp_tcp
module Wire = Smapp_netlink.Wire

type event =
  | Created of { token : int; flow : Ip.flow; sub_id : int }
  | Estab of { token : int }
  | Closed of { token : int }
  | Sub_estab of { token : int; sub_id : int; flow : Ip.flow; backup : bool }
  | Sub_closed of { token : int; sub_id : int; flow : Ip.flow; error : Tcp_error.t option }
  | Timeout of { token : int; sub_id : int; rto : Time.span; count : int }
  | Add_addr of { token : int; addr_id : int; endpoint : Ip.endpoint }
  | Rem_addr of { token : int; addr_id : int }
  | New_local_addr of { addr : Ip.t; ifname : string }
  | Del_local_addr of { addr : Ip.t; ifname : string }

let event_kinds = 10

module Mask = struct
  let created = 1
  let estab = 2
  let closed = 4
  let sub_estab = 8
  let sub_closed = 16
  let timeout = 32
  let add_addr = 64
  let rem_addr = 128
  let new_local_addr = 256
  let del_local_addr = 512
  let all = (1 lsl event_kinds) - 1
end

(* message types: events 1-10, one mask bit each; commands 20-27; replies
   30-34; snapshots 40-41 *)
let event_type = function
  | Created _ -> 1
  | Estab _ -> 2
  | Closed _ -> 3
  | Sub_estab _ -> 4
  | Sub_closed _ -> 5
  | Timeout _ -> 6
  | Add_addr _ -> 7
  | Rem_addr _ -> 8
  | New_local_addr _ -> 9
  | Del_local_addr _ -> 10

let event_bit ev = event_type ev - 1
let mask_of_event ev = 1 lsl event_bit ev
let is_event v = Wire.msg_type v < 20

type command =
  | Subscribe of { mask : int }
  | Create_subflow of {
      token : int;
      src : Ip.t;
      src_port : int option;
      dst : Ip.endpoint;
      backup : bool;
    }
  | Remove_subflow of { token : int; sub_id : int }
  | Set_backup of { token : int; sub_id : int; backup : bool }
  | Get_sub_info of { token : int; sub_id : int }
  | Get_conn_info of { token : int }
  | Dump
  | Keepalive

type conn_info = {
  ci_token : int;
  ci_bytes_sent : int;
  ci_bytes_acked : int;
  ci_bytes_received : int;
  ci_subflow_count : int;
  ci_send_buffer : int;
}

type sub_snapshot = { ss_sub_id : int; ss_flow : Ip.flow; ss_backup : bool }

type conn_snapshot = {
  cs_token : int;
  cs_initial_flow : Ip.flow;
  cs_established : bool;
  cs_subs : sub_snapshot list;
}

type reply =
  | Ack
  | Error of string
  | R_sub_info of int * Tcp_info.t
  | R_conn_info of conn_info
  | R_dump of conn_snapshot list

(* attribute ids *)
let a_token = 1
and a_sub_id = 2
and a_src_addr = 3
and a_src_port = 4
and a_dst_addr = 5
and a_dst_port = 6
and a_backup = 7
and a_errno = 8
and a_rto_ns = 9
and a_rto_count = 10
and a_addr_id = 11
and a_addr = 12
and a_port = 13
and a_mask = 14
and a_snd_una = 15
and a_pacing = 16
and a_cwnd = 17
and a_srtt_ns = 18
and a_state = 19
and a_bytes_sent = 20
and a_bytes_acked = 21
and a_bytes_rcvd = 22
and a_sub_count = 23
and a_ifname = 24
and a_msg = 25
and a_snd_nxt = 26
and a_retrans = 27
and a_total_retrans = 28
and a_send_buffer = 29
and a_cmd_key = 30
and a_estab = 31
and a_conn_snap = 32
and a_sub_snap = 33

let errno_code = function
  | Tcp_error.Etimedout -> 110
  | Tcp_error.Econnreset -> 104
  | Tcp_error.Econnrefused -> 111
  | Tcp_error.Enetunreach -> 101
  | Tcp_error.Ehostunreach -> 113

let errno_of_code = function
  | 0 -> None
  | 110 -> Some Tcp_error.Etimedout
  | 104 -> Some Tcp_error.Econnreset
  | 111 -> Some Tcp_error.Econnrefused
  | 101 -> Some Tcp_error.Enetunreach
  | 113 -> Some Tcp_error.Ehostunreach
  | _ -> Some Tcp_error.Etimedout

let state_code = function
  | Tcp_info.Syn_sent -> 1
  | Tcp_info.Syn_received -> 2
  | Tcp_info.Established -> 3
  | Tcp_info.Fin_wait_1 -> 4
  | Tcp_info.Fin_wait_2 -> 5
  | Tcp_info.Close_wait -> 6
  | Tcp_info.Closing -> 7
  | Tcp_info.Last_ack -> 8
  | Tcp_info.Time_wait -> 9
  | Tcp_info.Closed -> 10

let state_of_code = function
  | 1 -> Tcp_info.Syn_sent
  | 2 -> Tcp_info.Syn_received
  | 3 -> Tcp_info.Established
  | 4 -> Tcp_info.Fin_wait_1
  | 5 -> Tcp_info.Fin_wait_2
  | 6 -> Tcp_info.Close_wait
  | 7 -> Tcp_info.Closing
  | 8 -> Tcp_info.Last_ack
  | 9 -> Tcp_info.Time_wait
  | _ -> Tcp_info.Closed

let put_flow w (flow : Ip.flow) =
  Wire.put_u32 w a_src_addr (Ip.to_int flow.src.addr);
  Wire.put_u32 w a_src_port flow.src.port;
  Wire.put_u32 w a_dst_addr (Ip.to_int flow.dst.addr);
  Wire.put_u32 w a_dst_port flow.dst.port

let get_flow v =
  let sa = Wire.get_u32 v a_src_addr in
  let sp = Wire.get_u32 v a_src_port in
  let da = Wire.get_u32 v a_dst_addr in
  let dp = Wire.get_u32 v a_dst_port in
  Ip.flow ~src:(Ip.endpoint (Ip.of_int sa) sp) ~dst:(Ip.endpoint (Ip.of_int da) dp)

(* Each decoder reads attributes in the order its encoder writes them, so a
   message missing several reports the first of them. *)

let encode_event ~seq ev =
  let w = Wire.start ~msg_type:(event_type ev) ~seq in
  (match ev with
  | Created { token; flow; sub_id } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_sub_id sub_id;
      put_flow w flow
  | Estab { token } | Closed { token } -> Wire.put_u32 w a_token token
  | Sub_estab { token; sub_id; flow; backup } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_sub_id sub_id;
      Wire.put_bool w a_backup backup;
      put_flow w flow
  | Sub_closed { token; sub_id; flow; error } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_sub_id sub_id;
      Wire.put_u32 w a_errno (match error with None -> 0 | Some e -> errno_code e);
      put_flow w flow
  | Timeout { token; sub_id; rto; count } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_sub_id sub_id;
      Wire.put_u64 w a_rto_ns (Time.span_to_ns rto);
      Wire.put_u32 w a_rto_count count
  | Add_addr { token; addr_id; endpoint } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_addr_id addr_id;
      Wire.put_u32 w a_addr (Ip.to_int endpoint.Ip.addr);
      Wire.put_u32 w a_port endpoint.Ip.port
  | Rem_addr { token; addr_id } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_addr_id addr_id
  | New_local_addr { addr; ifname } | Del_local_addr { addr; ifname } ->
      Wire.put_u32 w a_addr (Ip.to_int addr);
      Wire.put_str w a_ifname ifname);
  Wire.finish w

let event_of_view v =
  match Wire.msg_type v with
  | 1 ->
      let token = Wire.get_u32 v a_token in
      let sub_id = Wire.get_u32 v a_sub_id in
      Created { token; sub_id; flow = get_flow v }
  | 2 -> Estab { token = Wire.get_u32 v a_token }
  | 3 -> Closed { token = Wire.get_u32 v a_token }
  | 4 ->
      let token = Wire.get_u32 v a_token in
      let sub_id = Wire.get_u32 v a_sub_id in
      let backup = Wire.get_bool v a_backup in
      Sub_estab { token; sub_id; backup; flow = get_flow v }
  | 5 ->
      let token = Wire.get_u32 v a_token in
      let sub_id = Wire.get_u32 v a_sub_id in
      let error = errno_of_code (Wire.get_u32 v a_errno) in
      Sub_closed { token; sub_id; error; flow = get_flow v }
  | 6 ->
      let token = Wire.get_u32 v a_token in
      let sub_id = Wire.get_u32 v a_sub_id in
      let rto = Time.span_ns (Wire.get_u64 v a_rto_ns) in
      Timeout { token; sub_id; rto; count = Wire.get_u32 v a_rto_count }
  | 7 ->
      let token = Wire.get_u32 v a_token in
      let addr_id = Wire.get_u32 v a_addr_id in
      let addr = Ip.of_int (Wire.get_u32 v a_addr) in
      Add_addr { token; addr_id; endpoint = Ip.endpoint addr (Wire.get_u32 v a_port) }
  | 8 ->
      let token = Wire.get_u32 v a_token in
      Rem_addr { token; addr_id = Wire.get_u32 v a_addr_id }
  | (9 | 10) as ty ->
      let addr = Ip.of_int (Wire.get_u32 v a_addr) in
      let ifname = Wire.get_str v a_ifname in
      if ty = 9 then New_local_addr { addr; ifname } else Del_local_addr { addr; ifname }
  | ty -> raise (Wire.Malformed (Printf.sprintf "unknown event type %d" ty))

let command_type = function
  | Subscribe _ -> 20
  | Create_subflow _ -> 21
  | Remove_subflow _ -> 22
  | Set_backup _ -> 23
  | Get_sub_info _ -> 24
  | Get_conn_info _ -> 25
  | Dump -> 26
  | Keepalive -> 27

let encode_command ?key ~seq cmd =
  let w = Wire.start ~msg_type:(command_type cmd) ~seq in
  (match key with Some k -> Wire.put_u32 w a_cmd_key k | None -> ());
  (match cmd with
  | Subscribe { mask } -> Wire.put_u32 w a_mask mask
  | Create_subflow { token; src; src_port; dst; backup } -> (
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_src_addr (Ip.to_int src);
      Wire.put_u32 w a_dst_addr (Ip.to_int dst.Ip.addr);
      Wire.put_u32 w a_dst_port dst.Ip.port;
      Wire.put_bool w a_backup backup;
      match src_port with Some p -> Wire.put_u32 w a_src_port p | None -> ())
  | Remove_subflow { token; sub_id } | Get_sub_info { token; sub_id } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_sub_id sub_id
  | Set_backup { token; sub_id; backup } ->
      Wire.put_u32 w a_token token;
      Wire.put_u32 w a_sub_id sub_id;
      Wire.put_bool w a_backup backup
  | Get_conn_info { token } -> Wire.put_u32 w a_token token
  | Dump | Keepalive -> ());
  Wire.finish w

let command_key v = Wire.find_u32 v a_cmd_key

let command_of_view v =
  match Wire.msg_type v with
  | 20 -> Subscribe { mask = Wire.get_u32 v a_mask }
  | 21 ->
      let token = Wire.get_u32 v a_token in
      let src = Ip.of_int (Wire.get_u32 v a_src_addr) in
      let dst = Ip.of_int (Wire.get_u32 v a_dst_addr) in
      let dst = Ip.endpoint dst (Wire.get_u32 v a_dst_port) in
      let backup = Wire.get_bool v a_backup in
      let src_port = match Wire.find_u32 v a_src_port with -1 -> None | p -> Some p in
      Create_subflow { token; src; dst; backup; src_port }
  | (22 | 24) as ty ->
      let token = Wire.get_u32 v a_token in
      let sub_id = Wire.get_u32 v a_sub_id in
      if ty = 22 then Remove_subflow { token; sub_id } else Get_sub_info { token; sub_id }
  | 23 ->
      let token = Wire.get_u32 v a_token in
      let sub_id = Wire.get_u32 v a_sub_id in
      Set_backup { token; sub_id; backup = Wire.get_bool v a_backup }
  | 25 -> Get_conn_info { token = Wire.get_u32 v a_token }
  | 26 -> Dump
  | 27 -> Keepalive
  | ty -> raise (Wire.Malformed (Printf.sprintf "unknown command type %d" ty))

(* snapshots nest as encoded sub-messages carried in string attributes, the
   netlink idiom for nested attribute sets *)
let encode_sub_snapshot s =
  let w = Wire.start ~msg_type:41 ~seq:0 in
  Wire.put_u32 w a_sub_id s.ss_sub_id;
  Wire.put_bool w a_backup s.ss_backup;
  put_flow w s.ss_flow;
  Wire.finish w

let sub_snapshot_of_string s =
  let v = Wire.view s in
  if Wire.msg_type v <> 41 then raise (Wire.Malformed "not a sub snapshot");
  let ss_sub_id = Wire.get_u32 v a_sub_id in
  let ss_backup = Wire.get_bool v a_backup in
  { ss_sub_id; ss_backup; ss_flow = get_flow v }

let encode_conn_snapshot c =
  let w = Wire.start ~msg_type:40 ~seq:0 in
  Wire.put_u32 w a_token c.cs_token;
  Wire.put_bool w a_estab c.cs_established;
  put_flow w c.cs_initial_flow;
  List.iter (fun s -> Wire.put_str w a_sub_snap (encode_sub_snapshot s)) c.cs_subs;
  Wire.finish w

let conn_snapshot_of_string s =
  let v = Wire.view s in
  if Wire.msg_type v <> 40 then raise (Wire.Malformed "not a conn snapshot");
  let cs_token = Wire.get_u32 v a_token in
  let cs_established = Wire.get_bool v a_estab in
  let cs_initial_flow = get_flow v in
  let cs_subs = List.map sub_snapshot_of_string (Wire.get_strs v a_sub_snap) in
  { cs_token; cs_established; cs_initial_flow; cs_subs }

let reply_type = function
  | Ack -> 30
  | Error _ -> 31
  | R_sub_info _ -> 32
  | R_conn_info _ -> 33
  | R_dump _ -> 34

let encode_reply ~seq r =
  let w = Wire.start ~msg_type:(reply_type r) ~seq in
  (match r with
  | Ack -> ()
  | Error e -> Wire.put_str w a_msg e
  | R_sub_info (sub_id, i) ->
      Wire.put_u32 w a_sub_id sub_id;
      Wire.put_u32 w a_state (state_code i.state);
      Wire.put_u64 w a_rto_ns (Time.span_to_ns i.rto);
      Wire.put_u64 w a_srtt_ns (match i.srtt with None -> -1 | Some s -> Time.span_to_ns s);
      Wire.put_u32 w a_cwnd i.snd_cwnd;
      Wire.put_u64 w a_pacing (int_of_float i.pacing_rate);
      Wire.put_u64 w a_snd_una i.snd_una;
      Wire.put_u64 w a_snd_nxt i.snd_nxt;
      Wire.put_u32 w a_retrans i.retransmits;
      Wire.put_u32 w a_total_retrans i.total_retrans;
      Wire.put_bool w a_backup i.backup
  | R_conn_info c ->
      Wire.put_u32 w a_token c.ci_token;
      Wire.put_u64 w a_bytes_sent c.ci_bytes_sent;
      Wire.put_u64 w a_bytes_acked c.ci_bytes_acked;
      Wire.put_u64 w a_bytes_rcvd c.ci_bytes_received;
      Wire.put_u32 w a_sub_count c.ci_subflow_count;
      Wire.put_u64 w a_send_buffer c.ci_send_buffer
  | R_dump conns ->
      List.iter (fun c -> Wire.put_str w a_conn_snap (encode_conn_snapshot c)) conns);
  Wire.finish w

let reply_of_view v =
  match Wire.msg_type v with
  | 30 -> Ack
  | 31 -> Error (Wire.get_str v a_msg)
  | 32 ->
      let sub_id = Wire.get_u32 v a_sub_id in
      let state = state_of_code (Wire.get_u32 v a_state) in
      let rto = Time.span_ns (Wire.get_u64 v a_rto_ns) in
      let srtt = Wire.get_u64 v a_srtt_ns in
      let snd_cwnd = Wire.get_u32 v a_cwnd in
      let pacing_rate = float_of_int (Wire.get_u64 v a_pacing) in
      let snd_una = Wire.get_u64 v a_snd_una in
      let snd_nxt = Wire.get_u64 v a_snd_nxt in
      let retransmits = Wire.get_u32 v a_retrans in
      let total_retrans = Wire.get_u32 v a_total_retrans in
      let backup = Wire.get_bool v a_backup in
      let srtt = if srtt < 0 then None else Some (Time.span_ns srtt) in
      R_sub_info
        ( sub_id,
          { Tcp_info.state; rto; srtt; snd_cwnd; pacing_rate; snd_una; snd_nxt; retransmits;
            total_retrans; backup } )
  | 33 ->
      let ci_token = Wire.get_u32 v a_token in
      let ci_bytes_sent = Wire.get_u64 v a_bytes_sent in
      let ci_bytes_acked = Wire.get_u64 v a_bytes_acked in
      let ci_bytes_received = Wire.get_u64 v a_bytes_rcvd in
      let ci_subflow_count = Wire.get_u32 v a_sub_count in
      let ci_send_buffer = Wire.get_u64 v a_send_buffer in
      R_conn_info
        {
          ci_token;
          ci_bytes_sent;
          ci_bytes_acked;
          ci_bytes_received;
          ci_subflow_count;
          ci_send_buffer;
        }
  | 34 -> R_dump (List.map conn_snapshot_of_string (Wire.get_strs v a_conn_snap))
  | ty -> raise (Wire.Malformed (Printf.sprintf "unknown reply type %d" ty))
