open Smapp_sim
module Channel = Smapp_netlink.Channel
module Wire = Smapp_netlink.Wire

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

(* An in-flight command, from the library's pool. A record owns its retry
   run, bound once, and goes back to the pool only once the run is stopped
   and its seq has left [pending]: a late reply or timer finds nothing. *)
type pending = {
  mutable p_bytes : string;
  mutable p_on_reply : Pm_msg.reply -> unit;
  mutable p_run : Retry.run option;
  mutable p_seq : int;
  mutable p_sent_ns : int;
  mutable p_label : string;
  mutable p_decision : string;
      (* label of the event whose dispatch issued this command, or "" *)
}

type t = {
  engine : Engine.t;
  channel : Channel.t;
  rng : Rng.t;
  listeners : (Pm_msg.event -> unit) list array;
      (* mask bit -> callbacks in registration order; an event has one bit *)
  mutable registered_mask : int; (* union of all registered masks *)
  mutable subscribed_mask : int;
  mutable next_seq : int;
  pending : (int, pending) Otable.t;
      (* seq -> in-flight command, in issue order: draining it (restart)
         must visit commands deterministically, which Hashtbl order is not *)
  free : pending Arena.t;
  mutable events_received : int;
  mutable last_event_seq : int; (* -1: no baseline *)
  mutable resync_cbs : (Pm_msg.conn_snapshot list -> unit) list;
  mutable resync_inflight : bool;
  mutable keepalive_timer : Engine.timer option;
  mutable retries : int;
  mutable gaps_detected : int;
  mutable resyncs : int;
  mutable duplicate_events_dropped : int;
  mutable restarts : int;
  mutable dispatching : string;
      (* event label while listeners run, or "": commands they issue are
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

let retransmit t p ~attempt =
  if attempt > 0 then begin
    t.retries <- t.retries + 1;
    Smapp_obs.Metrics.incr Obs.retries;
    Smapp_obs.Trace.instant ~cat:"pm" ~args:[ ("command", p.p_label) ] "retry"
  end;
  transmit t p.p_bytes

(* [p], out of [pending] and stopped, back to the pool; its reply callback returned *)
let release t p =
  let f = p.p_on_reply in
  p.p_bytes <- "";
  p.p_on_reply <- ignore;
  Arena.put t.free p;
  f

let give_up t p =
  Smapp_obs.Metrics.incr Obs.failures;
  Smapp_obs.Trace.instant ~cat:"pm" ~args:[ ("command", p.p_label) ] "command-failed";
  Otable.remove t.pending p.p_seq;
  (release t p) (Pm_msg.Error "command timed out")

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
    let p = Arena.take t.free in
    p.p_bytes <- bytes;
    p.p_on_reply <- on_reply;
    p.p_seq <- seq;
    p.p_sent_ns <- Time.to_ns (Engine.now t.engine);
    p.p_label <- command_label cmd;
    p.p_decision <- t.dispatching;
    Otable.add t.pending seq p;
    match p.p_run with
    | Some run -> Retry.restart run
    | None ->
        p.p_run <-
          Some
            (Retry.start t.engine ~rng:t.rng Retry.command_default ~body:(retransmit t p)
               ~exhausted:(fun () -> give_up t p)
               ())
  end

let resubscribe t =
  if t.registered_mask <> t.subscribed_mask then begin
    t.subscribed_mask <- t.registered_mask;
    send_command t (Pm_msg.Subscribe { mask = t.registered_mask }) ignore
  end

let rec fire ev = function
  | [] -> ()
  | f :: fs ->
      f ev;
      fire ev fs

let dispatch_event t ev =
  t.events_received <- t.events_received + 1;
  Smapp_obs.Metrics.incr Obs.events;
  let saved = t.dispatching in
  t.dispatching <- event_label ev;
  Smapp_obs.Prof.enter_class Controller "pm:dispatch";
  match fire ev t.listeners.(Pm_msg.event_bit ev) with
  | () ->
      Smapp_obs.Prof.exit_frame ();
      t.dispatching <- saved
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Smapp_obs.Prof.exit_frame ();
      t.dispatching <- saved;
      Printexc.raise_with_backtrace e bt
[@@smapp.hot]

let on_resync t f = t.resync_cbs <- t.resync_cbs @ [ f ]

let request_resync t =
  if not t.resync_inflight then begin
    t.resync_inflight <- true;
    t.resyncs <- t.resyncs + 1;
    Smapp_obs.Metrics.incr Obs.resyncs;
    Smapp_obs.Trace.instant ~cat:"pm" "resync";
    send_command t Pm_msg.Dump (function
      | Pm_msg.R_dump snapshots ->
          t.resync_inflight <- false;
          List.iter (fun f -> f snapshots) t.resync_cbs
      | Pm_msg.Ack | Pm_msg.Error _ | Pm_msg.R_sub_info _ | Pm_msg.R_conn_info _ ->
          (* resync failed; the next gap or restart re-triggers it *)
          t.resync_inflight <- false)
  end

(* Events carry the kernel's strictly increasing sequence number: a repeat
   is a duplicated message, a jump is a lost one. Duplicates are filtered;
   gaps trigger a full state resync because an unknown number of
   lifecycle transitions just went missing. *)
let handle_event t seq ev =
  let last = t.last_event_seq in
  if last >= 0 && seq <= last then begin
    t.duplicate_events_dropped <- t.duplicate_events_dropped + 1;
    Smapp_obs.Metrics.incr Obs.dups
  end
  else begin
    let gap = last >= 0 && seq > last + 1 in
    if gap then begin
      t.gaps_detected <- t.gaps_detected + 1;
      Smapp_obs.Metrics.incr Obs.gaps;
      Smapp_obs.Trace.instant ~cat:"pm"
        ~args:[ ("missing", string_of_int (seq - last - 1)) ]
        "seq-gap"
    end;
    t.last_event_seq <- seq;
    dispatch_event t ev;
    if gap then request_resync t
  end

let dispatch_reply t seq reply =
  match Otable.find t.pending seq with
  | p ->
      Otable.remove t.pending seq;
      Option.iter Retry.stop p.p_run;
      (* gated here: the float, the span names and the args would otherwise
         be built per reply with observability off *)
      if Atomic.get Smapp_obs.Scope.enabled then begin
        Smapp_obs.Metrics.observe Obs.cmd_rtt
          (float_of_int (Time.to_ns (Engine.now t.engine) - p.p_sent_ns));
        Smapp_obs.Trace.complete ~cat:"pm" ~start_ns:p.p_sent_ns ("cmd:" ^ p.p_label);
        if p.p_decision <> "" then
          Smapp_obs.Trace.complete ~cat:"controller" ~start_ns:p.p_sent_ns
            ~args:[ ("event", p.p_decision); ("command", p.p_label) ]
            ("decision:" ^ p.p_decision ^ "->" ^ p.p_label)
      end;
      (release t p) reply
  | exception Not_found -> ()

(* The message is read where it lies, the event or reply straight into its handler. *)
let on_bytes t bytes =
  match Wire.view bytes with
  | exception Wire.Malformed _ -> ()
  | v -> (
      let seq = Wire.seq v in
      if Pm_msg.is_event v then
        match Pm_msg.event_of_view v with
        | ev -> handle_event t seq ev
        | exception Wire.Malformed _ -> ()
      else
        match Pm_msg.reply_of_view v with
        | reply -> dispatch_reply t seq reply
        | exception Wire.Malformed _ -> ())
[@@smapp.hot]

(* Daemon restart: in-flight requests died with the old process, the event
   sequence baseline is gone, and the kernel may have moved on — re-arm the
   subscription and pull a full snapshot. *)
let restart t =
  t.restarts <- t.restarts + 1;
  Smapp_obs.Metrics.incr Obs.restarts;
  Smapp_obs.Trace.instant ~cat:"pm" "restart";
  (* issue order == seq order: Otable iterates in insertion order *)
  let stale = Otable.to_list t.pending in
  Otable.clear t.pending;
  List.iter
    (fun p ->
      Option.iter Retry.stop p.p_run;
      (release t p) (Pm_msg.Error "daemon restarted"))
    stale;
  t.last_event_seq <- -1;
  t.resync_inflight <- false;
  if t.subscribed_mask <> 0 then
    send_command t (Pm_msg.Subscribe { mask = t.subscribed_mask }) ignore;
  if t.resync_cbs <> [] then request_resync t

let enable_keepalive t ~interval =
  (match t.keepalive_timer with Some timer -> Engine.cancel timer | None -> ());
  t.keepalive_timer <-
    Some
      (Engine.every t.engine ~start:Time.span_zero interval (fun () ->
           (* fire-and-forget: silence is exactly what the watchdog must see
              when the daemon is gone *)
           send_command ~reliable:false t Pm_msg.Keepalive ignore;
           `Continue))

let fresh_pending () =
  {
    p_bytes = "";
    p_on_reply = ignore;
    p_run = None;
    p_seq = 0;
    p_sent_ns = 0;
    p_label = "";
    p_decision = "";
  }

let create engine channel =
  let t =
    {
      engine;
      channel;
      rng = Engine.split_rng engine;
      listeners = Array.make Pm_msg.event_kinds [];
      registered_mask = 0;
      subscribed_mask = 0;
      next_seq = 0;
      pending = Otable.create ~size:64 ();
      free = Arena.create fresh_pending;
      events_received = 0;
      last_event_seq = -1;
      resync_cbs = [];
      resync_inflight = false;
      keepalive_timer = None;
      retries = 0;
      gaps_detected = 0;
      resyncs = 0;
      duplicate_events_dropped = 0;
      restarts = 0;
      dispatching = "";
    }
  in
  Channel.on_user_receive channel (on_bytes t);
  Channel.on_user_restart channel (fun () -> restart t);
  t

let on_event t ~mask f =
  Array.iteri
    (fun bit fs -> if mask land (1 lsl bit) <> 0 then t.listeners.(bit) <- fs @ [ f ])
    t.listeners;
  t.registered_mask <- t.registered_mask lor mask;
  resubscribe t

let ack_handler = function
  | None -> ignore
  | Some f -> (
      function
      | Pm_msg.Ack -> f (Ok ())
      | Pm_msg.Error e -> f (Error e)
      | Pm_msg.R_sub_info _ | Pm_msg.R_conn_info _ | Pm_msg.R_dump _ ->
          f (Error "unexpected reply"))

let create_subflow t ~token ~src ?src_port ~dst ?(backup = false) ?on_result () =
  send_command t
    (Pm_msg.Create_subflow { token; src; src_port; dst; backup })
    (ack_handler on_result)

let remove_subflow t ~token ~sub_id () =
  send_command t (Pm_msg.Remove_subflow { token; sub_id }) ignore

let set_backup t ~token ~sub_id ~backup ?on_result () =
  send_command t (Pm_msg.Set_backup { token; sub_id; backup }) (ack_handler on_result)

let get_sub_info t ~token ~sub_id on_result =
  send_command t (Pm_msg.Get_sub_info { token; sub_id }) (function
    | Pm_msg.R_sub_info (_, i) -> on_result (Ok i)
    | Pm_msg.Error e -> on_result (Error e)
    | Pm_msg.Ack | Pm_msg.R_conn_info _ | Pm_msg.R_dump _ -> on_result (Error "unexpected reply"))

let get_conn_info t ~token on_result =
  send_command t (Pm_msg.Get_conn_info { token }) (function
    | Pm_msg.R_conn_info i -> on_result (Ok i)
    | Pm_msg.Error e -> on_result (Error e)
    | Pm_msg.Ack | Pm_msg.R_sub_info _ | Pm_msg.R_dump _ -> on_result (Error "unexpected reply"))
