open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Channel = Smapp_netlink.Channel
module Wire = Smapp_netlink.Wire

let kernel_work_delay = Time.span_us 3

type watchdog_config = {
  wd_interval : Time.span;
  wd_missed_threshold : int;
  wd_fullmesh_fallback : bool;
}

(* bounded replay cache for command idempotency keys *)
let key_cache_capacity = 512

type t = {
  endpoint : Endpoint.t;
  channel : Channel.t;
  engine : Engine.t;
  mutable mask : int;
  mutable next_seq : int;
  mutable events_sent : int;
  mutable commands_executed : int;
  mutable duplicate_commands : int;
  key_cache : (int, Pm_msg.reply) Hashtbl.t;
  key_order : int Queue.t;
  mutable watchdog : watchdog_config option;
  mutable last_rx : Time.t;
  mutable missed : int;
  mutable fallback_active : bool;
  mutable fallbacks : int;
  mutable handbacks : int;
}

let mask t = t.mask
let events_sent t = t.events_sent
let commands_executed t = t.commands_executed
let duplicate_commands t = t.duplicate_commands
let fallback_active t = t.fallback_active
let fallbacks t = t.fallbacks
let handbacks t = t.handbacks

let send_event t ev =
  if t.mask land Pm_msg.mask_of_event ev <> 0 then begin
    t.next_seq <- t.next_seq + 1;
    t.events_sent <- t.events_sent + 1;
    Channel.kernel_send t.channel (Wire.encode (Pm_msg.event_to_msg ~seq:t.next_seq ev))
  end

let activate_fallback t =
  if not t.fallback_active then begin
    t.fallback_active <- true;
    t.fallbacks <- t.fallbacks + 1;
    (* while the daemon is dead the kernel meshes for itself, exactly like
       the in-kernel fullmesh path manager *)
    match t.watchdog with
    | Some wd when wd.wd_fullmesh_fallback ->
        List.iter Path_manager.mesh_sweep (Endpoint.connections t.endpoint)
    | _ -> ()
  end

let hand_back t =
  if t.fallback_active then begin
    t.fallback_active <- false;
    t.handbacks <- t.handbacks + 1;
    t.missed <- 0
  end

let enable_watchdog t config =
  t.watchdog <- Some config;
  t.last_rx <- Engine.now t.engine;
  t.missed <- 0;
  ignore
    (Engine.every t.engine config.wd_interval (fun () ->
         if not t.fallback_active then begin
           if
             Time.compare_span
               (Time.diff (Engine.now t.engine) t.last_rx)
               config.wd_interval
             >= 0
           then t.missed <- t.missed + 1
           else t.missed <- 0;
           if t.missed >= config.wd_missed_threshold then activate_fallback t
         end;
         `Continue))

(* translate one connection's event stream *)
let watch_connection t conn =
  let token = Connection.local_token conn in
  (* the paper's [created] event fires when the connection exists *)
  let initial_sub_id =
    match Connection.subflows conn with sf :: _ -> sf.Subflow.id | [] -> 0
  in
  send_event t
    (Pm_msg.Created
       { token; flow = Connection.initial_flow conn; sub_id = initial_sub_id });
  Connection.subscribe conn (function
    | Connection.Established ->
        if t.fallback_active then Path_manager.mesh_sweep conn;
        send_event t (Pm_msg.Estab { token })
    | Connection.Closed -> send_event t (Pm_msg.Closed { token })
    | Connection.Subflow_established sf ->
        send_event t
          (Pm_msg.Sub_estab
             {
               token;
               sub_id = sf.Subflow.id;
               flow = Subflow.flow sf;
               backup = Subflow.is_backup sf;
             })
    | Connection.Subflow_closed (sf, error) ->
        send_event t
          (Pm_msg.Sub_closed
             { token; sub_id = sf.Subflow.id; flow = Subflow.flow sf; error })
    | Connection.Subflow_rto (sf, rto, count) ->
        send_event t (Pm_msg.Timeout { token; sub_id = sf.Subflow.id; rto; count })
    | Connection.Remote_add_addr (addr_id, endpoint) ->
        send_event t (Pm_msg.Add_addr { token; addr_id; endpoint })
    | Connection.Remote_rem_addr addr_id ->
        send_event t (Pm_msg.Rem_addr { token; addr_id })
    | Connection.Data_received _ -> ())

let sub_info_of sf =
  let info = Subflow.info sf in
  {
    Pm_msg.si_sub_id = sf.Subflow.id;
    si_state = info.Smapp_tcp.Tcp_info.state;
    si_rto = info.Smapp_tcp.Tcp_info.rto;
    si_srtt = info.Smapp_tcp.Tcp_info.srtt;
    si_cwnd = info.Smapp_tcp.Tcp_info.snd_cwnd;
    si_pacing_rate = info.Smapp_tcp.Tcp_info.pacing_rate;
    si_snd_una = info.Smapp_tcp.Tcp_info.snd_una;
    si_snd_nxt = info.Smapp_tcp.Tcp_info.snd_nxt;
    si_retransmits = info.Smapp_tcp.Tcp_info.retransmits;
    si_total_retrans = info.Smapp_tcp.Tcp_info.total_retrans;
    si_backup = info.Smapp_tcp.Tcp_info.backup;
  }

let snapshot_of conn =
  {
    Pm_msg.cs_token = Connection.local_token conn;
    cs_initial_flow = Connection.initial_flow conn;
    cs_established = Connection.established conn;
    cs_subs =
      List.filter_map
        (fun sf ->
          if Subflow.established sf then
            Some
              {
                Pm_msg.ss_sub_id = sf.Subflow.id;
                ss_flow = Subflow.flow sf;
                ss_backup = Subflow.is_backup sf;
              }
          else None)
        (Connection.subflows conn);
  }

let execute t cmd =
  let find_conn token =
    match Endpoint.find_by_token t.endpoint token with
    | Some conn -> Ok conn
    | None -> Error "no such connection"
  in
  let find_sub token sub_id =
    Result.bind (find_conn token) (fun conn ->
        match Connection.find_subflow conn sub_id with
        | Some sf -> Ok (conn, sf)
        | None -> Error "no such subflow")
  in
  match cmd with
  | Pm_msg.Subscribe { mask } ->
      let was = t.mask in
      t.mask <- mask;
      (* Like a netlink dump: a subscriber that arrives after connections
         exist gets their current state replayed, so controllers can manage
         connections established before they subscribed. *)
      if was = 0 && mask <> 0 then
        List.iter
          (fun conn ->
            let token = Connection.local_token conn in
            let initial_sub_id =
              match Connection.subflows conn with sf :: _ -> sf.Subflow.id | [] -> 0
            in
            send_event t
              (Pm_msg.Created
                 { token; flow = Connection.initial_flow conn; sub_id = initial_sub_id });
            if Connection.established conn then begin
              send_event t (Pm_msg.Estab { token });
              List.iter
                (fun sf ->
                  if Subflow.established sf then
                    send_event t
                      (Pm_msg.Sub_estab
                         {
                           token;
                           sub_id = sf.Subflow.id;
                           flow = Subflow.flow sf;
                           backup = Subflow.is_backup sf;
                         }))
                (Connection.subflows conn)
            end)
          (Endpoint.connections t.endpoint);
      Pm_msg.Ack
  | Pm_msg.Create_subflow { token; src; src_port; dst; backup } -> (
      match find_conn token with
      | Error e -> Pm_msg.Error e
      | Ok conn -> (
          match Connection.add_subflow conn ~src ?src_port ~dst ~backup () with
          | Ok _ -> Pm_msg.Ack
          | Error e -> Pm_msg.Error e))
  | Pm_msg.Remove_subflow { token; sub_id } -> (
      match find_sub token sub_id with
      | Error e -> Pm_msg.Error e
      | Ok (conn, sf) ->
          Connection.remove_subflow conn sf;
          Pm_msg.Ack)
  | Pm_msg.Set_backup { token; sub_id; backup } -> (
      match find_sub token sub_id with
      | Error e -> Pm_msg.Error e
      | Ok (conn, sf) ->
          Connection.set_subflow_backup conn sf backup;
          Pm_msg.Ack)
  | Pm_msg.Get_sub_info { token; sub_id } -> (
      match find_sub token sub_id with
      | Error e -> Pm_msg.Error e
      | Ok (_, sf) -> Pm_msg.R_sub_info (sub_info_of sf))
  | Pm_msg.Get_conn_info { token } -> (
      match find_conn token with
      | Error e -> Pm_msg.Error e
      | Ok conn ->
          Pm_msg.R_conn_info
            {
              Pm_msg.ci_token = token;
              ci_bytes_sent = Connection.bytes_sent conn;
              ci_bytes_acked = Connection.bytes_acked conn;
              ci_bytes_received = Connection.bytes_received conn;
              ci_subflow_count = List.length (Connection.subflows conn);
              ci_send_buffer = Connection.send_buffer_bytes conn;
            })
  | Pm_msg.Dump -> Pm_msg.R_dump (List.map snapshot_of (Endpoint.connections t.endpoint))
  | Pm_msg.Keepalive -> Pm_msg.Ack

let cache_reply t key reply =
  if not (Hashtbl.mem t.key_cache key) then begin
    Hashtbl.replace t.key_cache key reply;
    Queue.push key t.key_order;
    if Queue.length t.key_order > key_cache_capacity then
      Hashtbl.remove t.key_cache (Queue.pop t.key_order)
  end

let on_command_bytes t bytes =
  t.last_rx <- Engine.now t.engine;
  if t.fallback_active then hand_back t;
  match Wire.decode_batch bytes with
  | Error _ -> () (* a real kernel would NACK; malformed input is dropped *)
  | Ok msgs ->
      List.iter
        (fun m ->
          let seq = m.Wire.header.Wire.seq in
          ignore
            (Engine.after t.engine kernel_work_delay (fun () ->
                 let reply =
                   (* a retransmitted or duplicated command replays its
                      cached reply instead of executing twice *)
                   match Option.map (Hashtbl.find_opt t.key_cache) (Pm_msg.command_key m) with
                   | Some (Some cached) ->
                       t.duplicate_commands <- t.duplicate_commands + 1;
                       cached
                   | _ -> (
                       match Pm_msg.command_of_msg m with
                       | Error e -> Pm_msg.Error e
                       | Ok cmd ->
                           t.commands_executed <- t.commands_executed + 1;
                           let reply = execute t cmd in
                           (match Pm_msg.command_key m with
                           | Some key -> cache_reply t key reply
                           | None -> ());
                           reply)
                 in
                 Channel.kernel_send t.channel
                   (Wire.encode (Pm_msg.reply_to_msg ~seq reply)))))
        msgs

let attach endpoint channel =
  let engine = Endpoint.engine endpoint in
  let t =
    {
      endpoint;
      channel;
      engine;
      mask = 0;
      next_seq = 0;
      events_sent = 0;
      commands_executed = 0;
      duplicate_commands = 0;
      key_cache = Hashtbl.create 64;
      key_order = Queue.create ();
      watchdog = None;
      last_rx = Time.zero;
      missed = 0;
      fallback_active = false;
      fallbacks = 0;
      handbacks = 0;
    }
  in
  Channel.on_kernel_receive channel (on_command_bytes t);
  (* interface events *)
  Host.on_addr_change (Endpoint.host endpoint) (fun nic dir ->
      let addr = Host.nic_addr nic and ifname = Host.nic_name nic in
      match dir with
      | `Up -> send_event t (Pm_msg.New_local_addr { addr; ifname })
      | `Down -> send_event t (Pm_msg.Del_local_addr { addr; ifname }));
  (* existing and future connections *)
  List.iter (watch_connection t) (Endpoint.connections endpoint);
  Endpoint.subscribe_new_connections endpoint (watch_connection t);
  t
