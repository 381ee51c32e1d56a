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
  let all = 1023
end

let mask_of_event = function
  | Created _ -> Mask.created
  | Estab _ -> Mask.estab
  | Closed _ -> Mask.closed
  | Sub_estab _ -> Mask.sub_estab
  | Sub_closed _ -> Mask.sub_closed
  | Timeout _ -> Mask.timeout
  | Add_addr _ -> Mask.add_addr
  | Rem_addr _ -> Mask.rem_addr
  | New_local_addr _ -> Mask.new_local_addr
  | Del_local_addr _ -> Mask.del_local_addr

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

type sub_info = {
  si_sub_id : int;
  si_state : Tcp_info.state;
  si_rto : Time.span;
  si_srtt : Time.span option;
  si_cwnd : int;
  si_pacing_rate : float;
  si_snd_una : int;
  si_snd_nxt : int;
  si_retransmits : int;
  si_total_retrans : int;
  si_backup : bool;
}

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
  | R_sub_info of sub_info
  | R_conn_info of conn_info
  | R_dump of conn_snapshot list

(* message types *)
let t_created = 1
and t_estab = 2
and t_closed = 3
and t_sub_estab = 4
and t_sub_closed = 5
and t_timeout = 6
and t_add_addr = 7
and t_rem_addr = 8
and t_new_local = 9
and t_del_local = 10
and t_subscribe = 20
and t_create_subflow = 21
and t_remove_subflow = 22
and t_set_backup = 23
and t_get_sub_info = 24
and t_get_conn_info = 25
and t_dump = 26
and t_keepalive = 27
and t_ack = 30
and t_error = 31
and t_r_sub_info = 32
and t_r_conn_info = 33
and t_r_dump = 34
and t_conn_snap = 40
and t_sub_snap = 41

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

let u32 ty v = { Wire.attr_type = ty; value = Wire.U32 v }
let u64 ty v = { Wire.attr_type = ty; value = Wire.U64 (Int64.of_int v) }
let u8b ty v = { Wire.attr_type = ty; value = Wire.U8 (if v then 1 else 0) }
let str ty v = { Wire.attr_type = ty; value = Wire.Str v }

let flow_attrs (flow : Ip.flow) =
  [
    u32 a_src_addr (Ip.to_int flow.Ip.src.Ip.addr);
    u32 a_src_port flow.Ip.src.Ip.port;
    u32 a_dst_addr (Ip.to_int flow.Ip.dst.Ip.addr);
    u32 a_dst_port flow.Ip.dst.Ip.port;
  ]

let msg ~seq msg_type attrs =
  { Wire.header = { Wire.msg_type; flags = 0; seq; pid = 0 }; attrs }

let event_to_msg ~seq = function
  | Created { token; flow; sub_id } ->
      msg ~seq t_created (u32 a_token token :: u32 a_sub_id sub_id :: flow_attrs flow)
  | Estab { token } -> msg ~seq t_estab [ u32 a_token token ]
  | Closed { token } -> msg ~seq t_closed [ u32 a_token token ]
  | Sub_estab { token; sub_id; flow; backup } ->
      msg ~seq t_sub_estab
        (u32 a_token token :: u32 a_sub_id sub_id :: u8b a_backup backup :: flow_attrs flow)
  | Sub_closed { token; sub_id; flow; error } ->
      msg ~seq t_sub_closed
        (u32 a_token token :: u32 a_sub_id sub_id
        :: u32 a_errno (match error with None -> 0 | Some e -> errno_code e)
        :: flow_attrs flow)
  | Timeout { token; sub_id; rto; count } ->
      msg ~seq t_timeout
        [
          u32 a_token token;
          u32 a_sub_id sub_id;
          u64 a_rto_ns (Time.span_to_ns rto);
          u32 a_rto_count count;
        ]
  | Add_addr { token; addr_id; endpoint } ->
      msg ~seq t_add_addr
        [
          u32 a_token token;
          u32 a_addr_id addr_id;
          u32 a_addr (Ip.to_int endpoint.Ip.addr);
          u32 a_port endpoint.Ip.port;
        ]
  | Rem_addr { token; addr_id } ->
      msg ~seq t_rem_addr [ u32 a_token token; u32 a_addr_id addr_id ]
  | New_local_addr { addr; ifname } ->
      msg ~seq t_new_local [ u32 a_addr (Ip.to_int addr); str a_ifname ifname ]
  | Del_local_addr { addr; ifname } ->
      msg ~seq t_del_local [ u32 a_addr (Ip.to_int addr); str a_ifname ifname ]

let ( let* ) = Result.bind

let ip_of_int = Ip.of_int

let get_flow m =
  let* sa = Wire.get_u32 m a_src_addr in
  let* sp = Wire.get_u32 m a_src_port in
  let* da = Wire.get_u32 m a_dst_addr in
  let* dp = Wire.get_u32 m a_dst_port in
  Ok (Ip.flow ~src:(Ip.endpoint (ip_of_int sa) sp) ~dst:(Ip.endpoint (ip_of_int da) dp))

let event_of_msg m =
  let ty = m.Wire.header.Wire.msg_type in
  if ty = t_created then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* flow = get_flow m in
    Ok (Created { token; flow; sub_id })
  end
  else if ty = t_estab then begin
    let* token = Wire.get_u32 m a_token in
    Ok (Estab { token })
  end
  else if ty = t_closed then begin
    let* token = Wire.get_u32 m a_token in
    Ok (Closed { token })
  end
  else if ty = t_sub_estab then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* backup = Wire.get_u8 m a_backup in
    let* flow = get_flow m in
    Ok (Sub_estab { token; sub_id; flow; backup = backup <> 0 })
  end
  else if ty = t_sub_closed then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* errno = Wire.get_u32 m a_errno in
    let* flow = get_flow m in
    Ok (Sub_closed { token; sub_id; flow; error = errno_of_code errno })
  end
  else if ty = t_timeout then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* rto_ns = Wire.get_u64 m a_rto_ns in
    let* count = Wire.get_u32 m a_rto_count in
    Ok (Timeout { token; sub_id; rto = Time.span_ns (Int64.to_int rto_ns); count })
  end
  else if ty = t_add_addr then begin
    let* token = Wire.get_u32 m a_token in
    let* addr_id = Wire.get_u32 m a_addr_id in
    let* addr = Wire.get_u32 m a_addr in
    let* port = Wire.get_u32 m a_port in
    Ok (Add_addr { token; addr_id; endpoint = Ip.endpoint (ip_of_int addr) port })
  end
  else if ty = t_rem_addr then begin
    let* token = Wire.get_u32 m a_token in
    let* addr_id = Wire.get_u32 m a_addr_id in
    Ok (Rem_addr { token; addr_id })
  end
  else if ty = t_new_local then begin
    let* addr = Wire.get_u32 m a_addr in
    let* ifname = Wire.get_str m a_ifname in
    Ok (New_local_addr { addr = ip_of_int addr; ifname })
  end
  else if ty = t_del_local then begin
    let* addr = Wire.get_u32 m a_addr in
    let* ifname = Wire.get_str m a_ifname in
    Ok (Del_local_addr { addr = ip_of_int addr; ifname })
  end
  else Error (Printf.sprintf "unknown event type %d" ty)

let command_to_msg ?key ~seq cmd =
  let with_key m =
    match key with
    | None -> m
    | Some k -> { m with Wire.attrs = u32 a_cmd_key k :: m.Wire.attrs }
  in
  with_key
  @@
  match cmd with
  | Subscribe { mask } -> msg ~seq t_subscribe [ u32 a_mask mask ]
  | Create_subflow { token; src; src_port; dst; backup } ->
      msg ~seq t_create_subflow
        ([
           u32 a_token token;
           u32 a_src_addr (Ip.to_int src);
           u32 a_dst_addr (Ip.to_int dst.Ip.addr);
           u32 a_dst_port dst.Ip.port;
           u8b a_backup backup;
         ]
        @ match src_port with None -> [] | Some p -> [ u32 a_src_port p ])
  | Remove_subflow { token; sub_id } ->
      msg ~seq t_remove_subflow [ u32 a_token token; u32 a_sub_id sub_id ]
  | Set_backup { token; sub_id; backup } ->
      msg ~seq t_set_backup [ u32 a_token token; u32 a_sub_id sub_id; u8b a_backup backup ]
  | Get_sub_info { token; sub_id } ->
      msg ~seq t_get_sub_info [ u32 a_token token; u32 a_sub_id sub_id ]
  | Get_conn_info { token } -> msg ~seq t_get_conn_info [ u32 a_token token ]
  | Dump -> msg ~seq t_dump []
  | Keepalive -> msg ~seq t_keepalive []

let command_key m = Result.to_option (Wire.get_u32 m a_cmd_key)

let command_of_msg m =
  let ty = m.Wire.header.Wire.msg_type in
  if ty = t_subscribe then begin
    let* mask = Wire.get_u32 m a_mask in
    Ok (Subscribe { mask })
  end
  else if ty = t_create_subflow then begin
    let* token = Wire.get_u32 m a_token in
    let* src = Wire.get_u32 m a_src_addr in
    let* dst = Wire.get_u32 m a_dst_addr in
    let* dport = Wire.get_u32 m a_dst_port in
    let* backup = Wire.get_u8 m a_backup in
    let src_port = Result.to_option (Wire.get_u32 m a_src_port) in
    Ok
      (Create_subflow
         {
           token;
           src = ip_of_int src;
           src_port;
           dst = Ip.endpoint (ip_of_int dst) dport;
           backup = backup <> 0;
         })
  end
  else if ty = t_remove_subflow then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    Ok (Remove_subflow { token; sub_id })
  end
  else if ty = t_set_backup then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* backup = Wire.get_u8 m a_backup in
    Ok (Set_backup { token; sub_id; backup = backup <> 0 })
  end
  else if ty = t_get_sub_info then begin
    let* token = Wire.get_u32 m a_token in
    let* sub_id = Wire.get_u32 m a_sub_id in
    Ok (Get_sub_info { token; sub_id })
  end
  else if ty = t_get_conn_info then begin
    let* token = Wire.get_u32 m a_token in
    Ok (Get_conn_info { token })
  end
  else if ty = t_dump then Ok Dump
  else if ty = t_keepalive then Ok Keepalive
  else Error (Printf.sprintf "unknown command type %d" ty)

(* snapshots nest as encoded sub-messages carried in string attributes, the
   netlink idiom for nested attribute sets *)
let sub_snapshot_to_str s =
  Wire.encode
    (msg ~seq:0 t_sub_snap
       (u32 a_sub_id s.ss_sub_id :: u8b a_backup s.ss_backup :: flow_attrs s.ss_flow))

let sub_snapshot_of_str str =
  let* m = Wire.decode str in
  if m.Wire.header.Wire.msg_type <> t_sub_snap then Error "not a sub snapshot"
  else begin
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* backup = Wire.get_u8 m a_backup in
    let* flow = get_flow m in
    Ok { ss_sub_id = sub_id; ss_flow = flow; ss_backup = backup <> 0 }
  end

let conn_snapshot_to_str c =
  Wire.encode
    (msg ~seq:0 t_conn_snap
       (u32 a_token c.cs_token
       :: u8b a_estab c.cs_established
       :: (flow_attrs c.cs_initial_flow
          @ List.map (fun s -> str a_sub_snap (sub_snapshot_to_str s)) c.cs_subs)))

let conn_snapshot_of_str s =
  let* m = Wire.decode s in
  if m.Wire.header.Wire.msg_type <> t_conn_snap then Error "not a conn snapshot"
  else begin
    let* token = Wire.get_u32 m a_token in
    let* estab = Wire.get_u8 m a_estab in
    let* flow = get_flow m in
    let rec subs = function
      | [] -> Ok []
      | s :: rest ->
          let* sub = sub_snapshot_of_str s in
          let* rest = subs rest in
          Ok (sub :: rest)
    in
    let* cs_subs = subs (Wire.get_strs m a_sub_snap) in
    Ok { cs_token = token; cs_initial_flow = flow; cs_established = estab <> 0; cs_subs }
  end

let reply_to_msg ~seq = function
  | Ack -> msg ~seq t_ack []
  | Error e -> msg ~seq t_error [ str a_msg e ]
  | R_sub_info i ->
      msg ~seq t_r_sub_info
        [
          u32 a_sub_id i.si_sub_id;
          u32 a_state (state_code i.si_state);
          u64 a_rto_ns (Time.span_to_ns i.si_rto);
          u64 a_srtt_ns (match i.si_srtt with None -> -1 | Some s -> Time.span_to_ns s);
          u32 a_cwnd i.si_cwnd;
          { Wire.attr_type = a_pacing; value = Wire.U64 (Int64.of_float i.si_pacing_rate) };
          u64 a_snd_una i.si_snd_una;
          u64 a_snd_nxt i.si_snd_nxt;
          u32 a_retrans i.si_retransmits;
          u32 a_total_retrans i.si_total_retrans;
          u8b a_backup i.si_backup;
        ]
  | R_conn_info c ->
      msg ~seq t_r_conn_info
        [
          u32 a_token c.ci_token;
          u64 a_bytes_sent c.ci_bytes_sent;
          u64 a_bytes_acked c.ci_bytes_acked;
          u64 a_bytes_rcvd c.ci_bytes_received;
          u32 a_sub_count c.ci_subflow_count;
          u64 a_send_buffer c.ci_send_buffer;
        ]
  | R_dump conns ->
      msg ~seq t_r_dump (List.map (fun c -> str a_conn_snap (conn_snapshot_to_str c)) conns)

let reply_of_msg m =
  let ty = m.Wire.header.Wire.msg_type in
  if ty = t_ack then Ok Ack
  else if ty = t_error then begin
    let* e = Wire.get_str m a_msg in
    Ok (Error e)
  end
  else if ty = t_r_sub_info then begin
    let* sub_id = Wire.get_u32 m a_sub_id in
    let* state = Wire.get_u32 m a_state in
    let* rto_ns = Wire.get_u64 m a_rto_ns in
    let* srtt_ns = Wire.get_u64 m a_srtt_ns in
    let* cwnd = Wire.get_u32 m a_cwnd in
    let* pacing = Wire.get_u64 m a_pacing in
    let* snd_una = Wire.get_u64 m a_snd_una in
    let* snd_nxt = Wire.get_u64 m a_snd_nxt in
    let* retrans = Wire.get_u32 m a_retrans in
    let* total = Wire.get_u32 m a_total_retrans in
    let* backup = Wire.get_u8 m a_backup in
    Ok
      (R_sub_info
         {
           si_sub_id = sub_id;
           si_state = state_of_code state;
           si_rto = Time.span_ns (Int64.to_int rto_ns);
           si_srtt =
             (if Int64.compare srtt_ns 0L < 0 then None
              else Some (Time.span_ns (Int64.to_int srtt_ns)));
           si_cwnd = cwnd;
           si_pacing_rate = Int64.to_float pacing;
           si_snd_una = Int64.to_int snd_una;
           si_snd_nxt = Int64.to_int snd_nxt;
           si_retransmits = retrans;
           si_total_retrans = total;
           si_backup = backup <> 0;
         })
  end
  else if ty = t_r_conn_info then begin
    let* token = Wire.get_u32 m a_token in
    let* sent = Wire.get_u64 m a_bytes_sent in
    let* acked = Wire.get_u64 m a_bytes_acked in
    let* rcvd = Wire.get_u64 m a_bytes_rcvd in
    let* subs = Wire.get_u32 m a_sub_count in
    let* buffer = Wire.get_u64 m a_send_buffer in
    Ok
      (R_conn_info
         {
           ci_token = token;
           ci_bytes_sent = Int64.to_int sent;
           ci_bytes_acked = Int64.to_int acked;
           ci_bytes_received = Int64.to_int rcvd;
           ci_subflow_count = subs;
           ci_send_buffer = Int64.to_int buffer;
         })
  end
  else if ty = t_r_dump then begin
    let rec conns = function
      | [] -> Ok []
      | s :: rest ->
          let* c = conn_snapshot_of_str s in
          let* rest = conns rest in
          Ok (c :: rest)
    in
    let* cs = conns (Wire.get_strs m a_conn_snap) in
    Ok (R_dump cs)
  end
  else Error (Printf.sprintf "unknown reply type %d" ty)
