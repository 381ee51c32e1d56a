open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Channel = Smapp_netlink.Channel
module Wire = Smapp_netlink.Wire

let kernel_work_delay = Time.span_us 3

type watchdog_config = { wd_interval : Time.span; wd_missed_threshold : int }

(* bounded replay cache, keyed by (idempotency key, command) *)
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
  key_cache : (int * Pm_msg.command, Pm_msg.reply) Hashtbl.t;
  key_order : (int * Pm_msg.command) Queue.t;
  work : string Fifo.t; (* commands received, waiting for the work step *)
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
    Channel.kernel_send t.channel (Pm_msg.encode_event ~seq:t.next_seq ev)
  end

let activate_fallback t =
  if not t.fallback_active then begin
    t.fallback_active <- true;
    t.fallbacks <- t.fallbacks + 1;
    (* while the daemon is dead the kernel meshes for itself, exactly like
       the in-kernel fullmesh path manager *)
    List.iter Path_manager.mesh_sweep (Endpoint.connections t.endpoint)
  end

let hand_back t =
  if t.fallback_active then begin
    t.fallback_active <- false;
    t.handbacks <- t.handbacks + 1;
    t.missed <- 0
  end

let enable_watchdog t config =
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

(* a connection's and a subflow's announcements, live and in a subscribe replay *)
let send_created t conn =
  let sub_id = match Connection.subflows conn with sf :: _ -> sf.Subflow.id | [] -> 0 in
  let token = Connection.local_token conn and flow = Connection.initial_flow conn in
  send_event t (Pm_msg.Created { token; flow; sub_id })

let send_sub_estab t conn sf =
  let token = Connection.local_token conn and sub_id = sf.Subflow.id in
  let flow = Subflow.flow sf and backup = Subflow.is_backup sf in
  send_event t (Pm_msg.Sub_estab { token; sub_id; flow; backup })

(* translate one connection's event stream *)
let watch_connection t conn =
  let token = Connection.local_token conn in
  (* the paper's [created] event fires when the connection exists *)
  send_created t conn;
  Connection.subscribe conn (function
    | Connection.Established ->
        if t.fallback_active then Path_manager.mesh_sweep conn;
        send_event t (Pm_msg.Estab { token })
    | Connection.Closed -> send_event t (Pm_msg.Closed { token })
    | Connection.Subflow_established sf -> send_sub_estab t conn sf
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

let sub_snapshot_of sf =
  { Pm_msg.ss_sub_id = sf.Subflow.id; ss_flow = Subflow.flow sf; ss_backup = Subflow.is_backup sf }

let snapshot_of conn =
  {
    Pm_msg.cs_token = Connection.local_token conn;
    cs_initial_flow = Connection.initial_flow conn;
    cs_established = Connection.established conn;
    cs_subs = List.map sub_snapshot_of (List.filter Subflow.established (Connection.subflows conn));
  }

(* A command naming what the kernel does not have is answered with an error. *)
exception Refused of string

let conn_of t token =
  match Endpoint.find_by_token t.endpoint token with
  | conn -> conn
  | exception Not_found -> raise (Refused "no such connection")

let sub_of conn sub_id =
  match Connection.find_subflow conn sub_id with
  | Some sf -> sf
  | None -> raise (Refused "no such subflow")

let run_command t = function
  | Pm_msg.Subscribe { mask } ->
      let was = t.mask in
      t.mask <- mask;
      (* Like a netlink dump: a subscriber that arrives after connections
         exist gets their current state replayed, so controllers can manage
         connections established before they subscribed. *)
      if was = 0 && mask <> 0 then
        List.iter
          (fun conn ->
            send_created t conn;
            if Connection.established conn then begin
              send_event t (Pm_msg.Estab { token = Connection.local_token conn });
              List.iter
                (fun sf -> if Subflow.established sf then send_sub_estab t conn sf)
                (Connection.subflows conn)
            end)
          (Endpoint.connections t.endpoint);
      Pm_msg.Ack
  | Pm_msg.Create_subflow { token; src; src_port; dst; backup } -> (
      match Connection.add_subflow (conn_of t token) ~src ?src_port ~dst ~backup () with
      | Ok _ -> Pm_msg.Ack
      | Error e -> Pm_msg.Error e)
  | Pm_msg.Remove_subflow { token; sub_id } ->
      let conn = conn_of t token in
      Connection.remove_subflow conn (sub_of conn sub_id);
      Pm_msg.Ack
  | Pm_msg.Set_backup { token; sub_id; backup } ->
      let conn = conn_of t token in
      Connection.set_subflow_backup conn (sub_of conn sub_id) backup;
      Pm_msg.Ack
  | Pm_msg.Get_sub_info { token; sub_id } ->
      Pm_msg.R_sub_info (sub_id, Subflow.info (sub_of (conn_of t token) sub_id))
  | Pm_msg.Get_conn_info { token } ->
      let conn = conn_of t token in
      Pm_msg.R_conn_info
        {
          Pm_msg.ci_token = token;
          ci_bytes_sent = Connection.bytes_sent conn;
          ci_bytes_acked = Connection.bytes_acked conn;
          ci_bytes_received = Connection.bytes_received conn;
          ci_subflow_count = List.length (Connection.subflows conn);
          ci_send_buffer = Connection.send_buffer_bytes conn;
        }
  | Pm_msg.Dump -> Pm_msg.R_dump (List.map snapshot_of (Endpoint.connections t.endpoint))
  | Pm_msg.Keepalive -> Pm_msg.Ack

let execute t cmd =
  t.commands_executed <- t.commands_executed + 1;
  try run_command t cmd with Refused e -> Pm_msg.Error e

let cache_reply t key reply =
  Hashtbl.replace t.key_cache key reply;
  Queue.push key t.key_order;
  if Queue.length t.key_order > key_cache_capacity then
    Hashtbl.remove t.key_cache (Queue.pop t.key_order)

(* The work step on the oldest command received, where it is read, once. *)
let work t () =
  match Wire.view (Fifo.pop t.work) with
  | exception Wire.Malformed _ -> () (* a real kernel would NACK; malformed input is dropped *)
  | v ->
      let key = Pm_msg.command_key v in
      let reply =
        match Pm_msg.command_of_view v with
        | exception Wire.Malformed e -> Pm_msg.Error e
        | cmd when key < 0 -> execute t cmd
        | cmd -> (
            (* a retransmitted or duplicated command replays its cached
               reply instead of executing twice; another command that drew
               the same random key executes *)
            match Hashtbl.find_opt t.key_cache (key, cmd) with
            | Some cached ->
                t.duplicate_commands <- t.duplicate_commands + 1;
                cached
            | None ->
                let reply = execute t cmd in
                cache_reply t (key, cmd) reply;
                reply)
      in
      Channel.kernel_send t.channel (Pm_msg.encode_reply ~seq:(Wire.seq v) reply)

(* [step] is [work t], built once by [attach] *)
let on_command_bytes t step bytes =
  t.last_rx <- Engine.now t.engine;
  if t.fallback_active then hand_back t;
  Fifo.push t.work bytes;
  Engine.schedule t.engine (Time.add (Engine.now t.engine) kernel_work_delay) step
[@@smapp.hot]

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
      work = Fifo.create "";
      last_rx = Time.zero;
      missed = 0;
      fallback_active = false;
      fallbacks = 0;
      handbacks = 0;
    }
  in
  Channel.on_kernel_receive channel (on_command_bytes t (work t));
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
