open Smapp_sim
module Channel = Smapp_netlink.Channel

(* Observability handles (inert until [Smapp_obs.Scope.enabled]). The
   "decision:<event>-><command>" spans stitch a dispatched kernel event to
   the command a controller issued in response — their duration is the
   command round trip, which together with the channel's crossing spans
   decomposes the Fig 3 userspace reaction gap. *)
module Obs = struct
  module M = Smapp_obs.Metrics

  let commands = M.counter ~help:"commands issued to the kernel" "pm_commands_total"
  let events = M.counter ~help:"events dispatched to listeners" "pm_events_total"
  let retries = M.counter ~help:"command retransmissions" "pm_command_retries_total"

  let failures =
    M.counter ~help:"commands that exhausted their retry budget" "pm_command_failures_total"

  let gaps = M.counter ~help:"event sequence gaps detected" "pm_seq_gaps_total"
  let dups = M.counter ~help:"duplicate events filtered" "pm_duplicate_events_total"
  let resyncs = M.counter ~help:"full-state resyncs requested" "pm_resyncs_total"
  let restarts = M.counter ~help:"daemon restarts handled" "pm_restarts_total"
  let cmd_rtt = M.histogram ~help:"ns from command send to its reply" "pm_command_rtt_ns"
end

let command_label = function
  | Pm_msg.Subscribe _ -> "subscribe"
  | Pm_msg.Create_subflow _ -> "create_subflow"
  | Pm_msg.Remove_subflow _ -> "remove_subflow"
  | Pm_msg.Set_backup _ -> "set_backup"
  | Pm_msg.Get_sub_info _ -> "get_sub_info"
  | Pm_msg.Get_conn_info _ -> "get_conn_info"
  | Pm_msg.Dump -> "dump"
  | Pm_msg.Keepalive -> "keepalive"

let event_label = function
  | Pm_msg.Created _ -> "created"
  | Pm_msg.Estab _ -> "estab"
  | Pm_msg.Closed _ -> "closed"
  | Pm_msg.Sub_estab _ -> "sub_estab"
  | Pm_msg.Sub_closed _ -> "sub_closed"
  | Pm_msg.Timeout _ -> "timeout"
  | Pm_msg.Add_addr _ -> "add_addr"
  | Pm_msg.Rem_addr _ -> "rem_addr"
  | Pm_msg.New_local_addr _ -> "new_local_addr"
  | Pm_msg.Del_local_addr _ -> "del_local_addr"

type pending = {
  p_on_reply : (Pm_msg.reply -> unit) option;
  mutable p_run : Retry.run option;
  p_sent_ns : int;
  p_label : string;
  p_decision : string option;
      (* label of the event whose dispatch issued this command, if any *)
}

type t = {
  engine : Engine.t;
  channel : Channel.t;
  rng : Rng.t;
  listeners : (int, (Pm_msg.event -> unit) list ref) Hashtbl.t;
      (* mask bit index -> callbacks in registration order; dispatching an
         event reads one bucket instead of scanning every registration *)
  mutable registered_mask : int; (* union of all registered masks *)
  mutable subscribed_mask : int;
  mutable next_seq : int;
  pending : (int, pending) Otable.t;
      (* seq -> in-flight command, in issue order: draining it (restart)
         must visit commands deterministically, which Hashtbl order is not *)
  mutable events_received : int;
  mutable last_event_seq : int option;
  mutable resync_cbs : (Pm_msg.conn_snapshot list -> unit) list;
  mutable resync_inflight : bool;
  mutable keepalive_timer : Engine.timer option;
  mutable retries : int;
  mutable gaps_detected : int;
  mutable resyncs : int;
  mutable duplicate_events_dropped : int;
  mutable restarts : int;
  mutable dispatching : string option;
      (* event label while listeners run, so commands they issue can be
         attributed to the triggering event in decision spans *)
}

let engine t = t.engine
let pending_requests t = Otable.length t.pending
let events_received t = t.events_received
let retries t = t.retries
let gaps_detected t = t.gaps_detected
let resyncs t = t.resyncs
let duplicate_events_dropped t = t.duplicate_events_dropped
let restarts t = t.restarts

let transmit t bytes = Channel.user_send t.channel bytes

(* Every command is tracked until its reply (or duplicate-filtered replay of
   its reply) comes back; lost commands and lost replies are retransmitted
   with capped exponential backoff under the same idempotency key, so the
   kernel executes each logical command at most once. *)
let send_command ?(reliable = true) t cmd on_reply =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let key = Rng.bits30 t.rng in
  let bytes = Pm_msg.encode_command ~key ~seq cmd in
  Smapp_obs.Metrics.incr Obs.commands;
  if not reliable then transmit t bytes
  else begin
    let p =
      {
        p_on_reply = on_reply;
        p_run = None;
        p_sent_ns = Time.to_ns (Engine.now t.engine);
        p_label = command_label cmd;
        p_decision = t.dispatching;
      }
    in
    Otable.add t.pending seq p;
    p.p_run <-
      Some
        (Retry.start t.engine ~rng:t.rng Retry.command_default
           ~body:(fun ~attempt ->
             if attempt > 0 then begin
               t.retries <- t.retries + 1;
               Smapp_obs.Metrics.incr Obs.retries;
               Smapp_obs.Trace.instant ~cat:"pm"
                 ~args:[ ("command", p.p_label) ]
                 "retry"
             end;
             transmit t bytes)
           ~exhausted:(fun () ->
             Smapp_obs.Metrics.incr Obs.failures;
             Smapp_obs.Trace.instant ~cat:"pm"
               ~args:[ ("command", p.p_label) ]
               "command-failed";
             Otable.remove t.pending seq;
             match p.p_on_reply with
             | Some f -> f (Pm_msg.Error "command timed out")
             | None -> ())
           ())
  end

let resubscribe t =
  if t.registered_mask <> t.subscribed_mask then begin
    t.subscribed_mask <- t.registered_mask;
    send_command t (Pm_msg.Subscribe { mask = t.registered_mask }) None
  end

let rec iter_mask_bits f mask bit =
  if mask <> 0 then begin
    if mask land 1 = 1 then f bit;
    iter_mask_bits f (mask lsr 1) (bit + 1)
  end

let dispatch_event t ev =
  t.events_received <- t.events_received + 1;
  Smapp_obs.Metrics.incr Obs.events;
  let saved = t.dispatching in
  t.dispatching <- Some (event_label ev);
  Smapp_obs.Prof.enter_class Controller "pm:dispatch";
  Fun.protect
    ~finally:(fun () ->
      Smapp_obs.Prof.exit_frame ();
      t.dispatching <- saved)
    (fun () ->
      iter_mask_bits
        (fun bit ->
          match Hashtbl.find_opt t.listeners bit with
          | Some fs -> List.iter (fun f -> f ev) !fs
          | None -> ())
        (Pm_msg.mask_of_event ev) 0)

let on_resync t f = t.resync_cbs <- t.resync_cbs @ [ f ]

let request_resync t =
  if not t.resync_inflight then begin
    t.resync_inflight <- true;
    t.resyncs <- t.resyncs + 1;
    Smapp_obs.Metrics.incr Obs.resyncs;
    Smapp_obs.Trace.instant ~cat:"pm" "resync";
    send_command t Pm_msg.Dump
      (Some
         (function
         | Pm_msg.R_dump snapshots ->
             t.resync_inflight <- false;
             List.iter (fun f -> f snapshots) t.resync_cbs
         | Pm_msg.Ack | Pm_msg.Error _ | Pm_msg.R_sub_info _ | Pm_msg.R_conn_info _ ->
             (* resync failed; the next gap or restart re-triggers it *)
             t.resync_inflight <- false))
  end

(* Events carry the kernel's strictly increasing sequence number: a repeat
   is a duplicated message, a jump is a lost one. Duplicates are filtered;
   gaps trigger a full state resync because an unknown number of
   lifecycle transitions just went missing. *)
let handle_event t seq ev =
  match t.last_event_seq with
  | Some last when seq <= last ->
      t.duplicate_events_dropped <- t.duplicate_events_dropped + 1;
      Smapp_obs.Metrics.incr Obs.dups
  | Some last when seq > last + 1 ->
      t.gaps_detected <- t.gaps_detected + 1;
      Smapp_obs.Metrics.incr Obs.gaps;
      Smapp_obs.Trace.instant ~cat:"pm"
        ~args:[ ("missing", string_of_int (seq - last - 1)) ]
        "seq-gap";
      t.last_event_seq <- Some seq;
      dispatch_event t ev;
      request_resync t
  | _ ->
      t.last_event_seq <- Some seq;
      dispatch_event t ev

let dispatch_reply t seq reply =
  match Otable.find t.pending seq with
  | Some p ->
      Otable.remove t.pending seq;
      (match p.p_run with Some run -> Retry.stop run | None -> ());
      (* gated here: the float, the span names and the args would otherwise
         be built per reply with observability off *)
      if Atomic.get Smapp_obs.Scope.enabled then begin
        Smapp_obs.Metrics.observe Obs.cmd_rtt
          (float_of_int (Time.to_ns (Engine.now t.engine) - p.p_sent_ns));
        Smapp_obs.Trace.complete ~cat:"pm" ~start_ns:p.p_sent_ns ("cmd:" ^ p.p_label);
        match p.p_decision with
        | Some ev ->
            Smapp_obs.Trace.complete ~cat:"controller" ~start_ns:p.p_sent_ns
              ~args:[ ("event", ev); ("command", p.p_label) ]
              ("decision:" ^ ev ^ "->" ^ p.p_label)
        | None -> ()
      end;
      (match p.p_on_reply with Some f -> f reply | None -> ())
  | None -> ()

let on_bytes t bytes =
  match Pm_msg.decode_kernel bytes with
  | Ok (seq, Pm_msg.Event ev) -> handle_event t seq ev
  | Ok (seq, Pm_msg.Reply reply) -> dispatch_reply t seq reply
  | Error _ -> ()

(* Daemon restart: in-flight requests died with the old process, the event
   sequence baseline is gone, and the kernel may have moved on — re-arm the
   subscription and pull a full snapshot. *)
let restart t =
  t.restarts <- t.restarts + 1;
  Smapp_obs.Metrics.incr Obs.restarts;
  Smapp_obs.Trace.instant ~cat:"pm" "restart";
  (* issue order == seq order: Otable iteration replaces the old
     sort-after-Hashtbl.fold dance and stays deterministic by construction *)
  let stale = Otable.to_list t.pending in
  Otable.clear t.pending;
  List.iter
    (fun p ->
      (match p.p_run with Some run -> Retry.stop run | None -> ());
      match p.p_on_reply with
      | Some f -> f (Pm_msg.Error "daemon restarted")
      | None -> ())
    stale;
  t.last_event_seq <- None;
  t.resync_inflight <- false;
  if t.subscribed_mask <> 0 then
    send_command t (Pm_msg.Subscribe { mask = t.subscribed_mask }) None;
  if t.resync_cbs <> [] then request_resync t

let enable_keepalive t ~interval =
  (match t.keepalive_timer with Some timer -> Engine.cancel timer | None -> ());
  t.keepalive_timer <-
    Some
      (Engine.every t.engine ~start:Time.span_zero interval (fun () ->
           (* fire-and-forget: silence is exactly what the watchdog must see
              when the daemon is gone *)
           send_command ~reliable:false t Pm_msg.Keepalive None;
           `Continue))

let create engine channel =
  let t =
    {
      engine;
      channel;
      rng = Engine.split_rng engine;
      listeners = Hashtbl.create 16;
      registered_mask = 0;
      subscribed_mask = 0;
      next_seq = 0;
      pending = Otable.create ~size:64 ();
      events_received = 0;
      last_event_seq = None;
      resync_cbs = [];
      resync_inflight = false;
      keepalive_timer = None;
      retries = 0;
      gaps_detected = 0;
      resyncs = 0;
      duplicate_events_dropped = 0;
      restarts = 0;
      dispatching = None;
    }
  in
  Channel.on_user_receive channel (on_bytes t);
  Channel.on_user_restart channel (fun () -> restart t);
  t

let on_event t ~mask f =
  iter_mask_bits
    (fun bit ->
      match Hashtbl.find_opt t.listeners bit with
      | Some fs -> fs := !fs @ [ f ]
      | None -> Hashtbl.replace t.listeners bit (ref [ f ]))
    mask 0;
  t.registered_mask <- t.registered_mask lor mask;
  resubscribe t

let ack_handler on_result =
  Option.map
    (fun f -> function
      | Pm_msg.Ack -> f (Ok ())
      | Pm_msg.Error e -> f (Error e)
      | Pm_msg.R_sub_info _ | Pm_msg.R_conn_info _ | Pm_msg.R_dump _ ->
          f (Error "unexpected reply"))
    on_result

let create_subflow t ~token ~src ?src_port ~dst ?(backup = false) ?on_result () =
  send_command t
    (Pm_msg.Create_subflow { token; src; src_port; dst; backup })
    (ack_handler on_result)

let remove_subflow t ~token ~sub_id () =
  send_command t (Pm_msg.Remove_subflow { token; sub_id }) None

let set_backup t ~token ~sub_id ~backup ?on_result () =
  send_command t (Pm_msg.Set_backup { token; sub_id; backup }) (ack_handler on_result)

let get_sub_info t ~token ~sub_id on_result =
  send_command t
    (Pm_msg.Get_sub_info { token; sub_id })
    (Some
       (function
       | Pm_msg.R_sub_info i -> on_result (Ok i)
       | Pm_msg.Error e -> on_result (Error e)
       | Pm_msg.Ack | Pm_msg.R_conn_info _ | Pm_msg.R_dump _ ->
           on_result (Error "unexpected reply")))

let get_conn_info t ~token on_result =
  send_command t
    (Pm_msg.Get_conn_info { token })
    (Some
       (function
       | Pm_msg.R_conn_info i -> on_result (Ok i)
       | Pm_msg.Error e -> on_result (Error e)
       | Pm_msg.Ack | Pm_msg.R_sub_info _ | Pm_msg.R_dump _ ->
           on_result (Error "unexpected reply")))
