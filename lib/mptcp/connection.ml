open Smapp_sim
open Smapp_netsim
open Smapp_tcp

type role = Client | Server

type event =
  | Established
  | Subflow_established of Subflow.t
  | Subflow_closed of Subflow.t * Tcp_error.t option
  | Subflow_rto of Subflow.t * Time.span * int
  | Remote_add_addr of int * Ip.endpoint
  | Remote_rem_addr of int
  | Data_received of int
  | Closed

let pp_event ppf = function
  | Established -> Format.fprintf ppf "established"
  | Subflow_established sf -> Format.fprintf ppf "sub_estab(%a)" Subflow.pp sf
  | Subflow_closed (sf, err) ->
      Format.fprintf ppf "sub_closed(%a,%s)" Subflow.pp sf
        (match err with None -> "fin" | Some e -> Tcp_error.to_string e)
  | Subflow_rto (sf, rto, n) ->
      Format.fprintf ppf "timeout(%a,rto=%a,n=%d)" Subflow.pp sf Time.pp_span rto n
  | Remote_add_addr (id, ep) -> Format.fprintf ppf "add_addr(%d,%a)" id Ip.pp_endpoint ep
  | Remote_rem_addr id -> Format.fprintf ppf "rem_addr(%d)" id
  | Data_received n -> Format.fprintf ppf "data(%d)" n
  | Closed -> Format.fprintf ppf "closed"

type internal_deps = {
  dep_engine : Engine.t;
  dep_stack : Stack.t;
  dep_rng : Rng.t;
  dep_tcb_config : Tcb.config;
  dep_token_in_use : int -> bool;
  dep_on_meta_closed : t -> unit;
}

(* per-subflow join handshake state *)
and join_state = {
  mutable j_local_nonce : int64;
  mutable j_remote_nonce : int64 option;
}

and t = {
  deps : internal_deps;
  role : role;
  id : int;
  mutable sched : Scheduler.t;
  local_key : Crypto.key;
  local_token : int;
  mutable remote_key : Crypto.key option;
  mutable remote_token : int option;
  mutable initial_flow : Ip.flow;
  mutable subflow_list : Subflow.t list;
  mutable next_subflow_id : int;
  mutable next_local_addr_id : int;
  mutable local_addr_ids : (int * Ip.t) list;
  mutable remote_addrs : (int * Ip.endpoint) list;
  mutable listeners : (event -> unit) list;
  mutable data_event : event;  (* the last [Data_received] emitted *)
  mutable receive : int -> unit;
  mutable join_policy : t -> Segment.t -> bool;
  joins : (int, join_state) Hashtbl.t; (* subflow id -> handshake nonces *)
  mutable cbs : Tcb.callbacks; (* every subflow's, built once in [make] *)
  (* send side: the bytes not yet handed to a subflow are
     [sched_next, dsn_next), cut where the application's writes ended; the
     end offsets wait in a ring that starts empty and grows by doubling.
     Ranges to send again wait in another, [lo; hi) as two ints each,
     sent first. *)
  mutable send_ends : Ring.t;
  mutable sched_next : int;
  mutable reinject_q : Ring.t;
  mutable dsn_next : int;
  acked : Intervals.t;
  lia : Cc.group;  (* the subflows' controllers, in [subflow_list] order *)
  (* receive side *)
  reasm : Reasm.t;
  mutable rcv_nxt : int;
  mutable bytes_received : int;
  (* lifecycle *)
  mutable is_established : bool;
  mutable closing : bool;
  mutable fin_sent : bool;  (* subflow closes initiated after drain *)
  mutable is_closed : bool;
  mutable pumping : bool;
  mutable last_phase : phase;
}

(* The connection-lifecycle FSM, derived from the four lifecycle flags.
   [Draining] = close requested, stream not yet fully acknowledged;
   [Finning] = every subflow told to FIN, waiting for them to die. *)
and phase = P_init | P_established | P_draining | P_finning | P_closed

let phase_name = function
  | P_init -> "INIT"
  | P_established -> "ESTABLISHED"
  | P_draining -> "DRAINING"
  | P_finning -> "FINNING"
  | P_closed -> "CLOSED"

(* --- conformance instrumentation: behind Tcb's switch, at Tcb's cost ------ *)

let phase_hook : (id:int -> phase -> phase -> unit) Atomic.t =
  Atomic.make (fun ~id:_ _ _ -> ())

let subflow_open_hook : (id:int -> phase -> unit) Atomic.t =
  Atomic.make (fun ~id:_ _ -> ())

let phase t =
  if t.is_closed then P_closed
  else if t.fin_sent then P_finning
  else if t.closing then P_draining
  else if t.is_established then P_established
  else P_init

(* Call after any mutation of the lifecycle flags. *)
let note_phase t =
  let next = phase t in
  if next <> t.last_phase then begin
    let prev = t.last_phase in
    t.last_phase <- next;
    if Atomic.get Tcb.checks_enabled then (Atomic.get phase_hook) ~id:t.id prev next
  end

(* Atomic: connections are constructed from parallel sweep lanes; ids only
   need to be unique, not dense, so fetch_and_add is enough. *)
let next_conn_id = Atomic.make 0

let role t = t.role
let id t = t.id
let engine t = t.deps.dep_engine
let host t = Stack.host t.deps.dep_stack
let local_token t = t.local_token
let remote_token t = t.remote_token
let initial_flow t = t.initial_flow
let subflows t = t.subflow_list
let find_subflow t sid = List.find_opt (fun s -> s.Subflow.id = sid) t.subflow_list
let established t = t.is_established
let closed t = t.is_closed
let subscribe t f = t.listeners <- t.listeners @ [ f ]
(* Until the application installs a receiver, delivered bytes go to this
   shared sink and are counted in [bytes_received] only. A connection can
   deliver before its accept callback runs (its handshake ACK was lost and
   a joined subflow carried the stream's head), so the first receiver is
   handed that backlog when it is installed. *)
let no_receiver : int -> unit = fun _ -> ()

let set_receive t f =
  let backlog = if t.receive == no_receiver then t.bytes_received else 0 in
  t.receive <- f;
  if backlog > 0 then f backlog
let set_join_policy t p = t.join_policy <- p
let set_scheduler t s = t.sched <- s
let remote_addresses t = t.remote_addrs
let bytes_sent t = t.dsn_next
let bytes_acked t = Intervals.contiguous_from t.acked 0
let bytes_received t = t.bytes_received

let send_buffer_bytes t =
  let q = t.reinject_q and n = ref (t.dsn_next - t.sched_next) in
  for k = 0 to (Ring.length q / 2) - 1 do
    n := !n + Ring.get q ((2 * k) + 1) - Ring.get q (2 * k)
  done;
  !n

let rec emit_to ev = function
  | [] -> ()
  | f :: rest ->
      f ev;
      emit_to ev rest

let emit t ev = emit_to ev t.listeners

let mss t = t.deps.dep_tcb_config.Tcb.mss

(* --- lifecycle helpers ------------------------------------------------------- *)

let all_data_acked t =
  Ring.length t.send_ends = 0
  && Ring.length t.reinject_q = 0
  && Intervals.covered t.acked 0 t.dsn_next

let finish_if_done t =
  if (not t.is_closed) && t.closing && t.fin_sent && t.subflow_list = [] then begin
    t.is_closed <- true;
    note_phase t;
    emit t Closed;
    t.deps.dep_on_meta_closed t
  end

(* Once all stream data is acknowledged, FIN every subflow. *)
let progress_close t =
  if t.closing && (not t.fin_sent) && all_data_acked t then begin
    t.fin_sent <- true;
    note_phase t;
    List.iter (fun sf -> Tcb.close sf.Subflow.tcb) t.subflow_list;
    finish_if_done t
  end

let first_established_tcb t =
  List.find_map
    (fun sf -> if Subflow.established sf then Some sf.Subflow.tcb else None)
    t.subflow_list

let abort_internal t ~notify_peer =
  if not t.is_closed then begin
    (* RFC 6824 MP_FASTCLOSE: tell the peer the whole connection is gone, so
       its meta-level state dies with ours instead of lingering *)
    (if notify_peer then
       match (first_established_tcb t, t.remote_key) with
       | Some tcb, Some key -> Tcb.send_ack_with_options tcb [ Options.Mp_fastclose { key } ]
       | _ -> ());
    List.iter (fun sf -> Tcb.abort sf.Subflow.tcb) t.subflow_list;
    t.closing <- true;
    t.fin_sent <- true;
    note_phase t;
    finish_if_done t
  end

(* --- send path ----------------------------------------------------------------- *)

let consume_range t len ~fresh =
  if fresh then begin
    t.sched_next <- t.sched_next + len;
    if t.sched_next >= Ring.get t.send_ends 0 then Ring.pop t.send_ends
  end
  else begin
    let q = t.reinject_q in
    if Ring.length q = 0 then
      Bug.fail "Connection.consume_range: reinject queue empty mid-consume";
    let lo = Ring.get q 0 + len in
    if lo >= Ring.get q 1 then begin
      Ring.pop q;
      Ring.pop q
    end
    else Ring.set q 0 lo
  end

(* Hand the next [len] unsent bytes at [dsn] to the scheduler's subflow,
   one quantum; false when no subflow takes them. A full MSS of space (or
   the tail of the range) is required, so we never shave silly slivers
   off a fractionally open window. *)
let pump_range t ~dsn ~len ~fresh =
  match Scheduler.choose t.sched ~min_space:(min len (mss t)) t.subflow_list with
  | exception Not_found -> false
  | sf ->
      let quantum = min len (min (mss t) (Tcb.available_window sf.Subflow.tcb)) in
      if quantum <= 0 then false
      else begin
        consume_range t quantum ~fresh;
        Tcb.enqueue sf.Subflow.tcb ~dsn ~len:quantum;
        true
      end
[@@smapp.hot]

let rec pump t =
  if (not t.pumping) && t.is_established && not t.is_closed then begin
    t.pumping <- true;
    (* reinjections first, then fresh data *)
    let continue = ref true in
    while !continue do
      continue :=
        if Ring.length t.reinject_q > 0 then
          let lo = Ring.get t.reinject_q 0 in
          pump_range t ~dsn:lo ~len:(Ring.get t.reinject_q 1 - lo) ~fresh:false
        else
          Ring.length t.send_ends > 0
          && pump_range t ~dsn:t.sched_next
               ~len:(Ring.get t.send_ends 0 - t.sched_next)
               ~fresh:true
    done;
    t.pumping <- false;
    progress_close t
  end
[@@smapp.hot]

and send t n =
  if n <= 0 then invalid_arg "Connection.send: n must be positive";
  if t.closing then invalid_arg "Connection.send: connection closing";
  t.dsn_next <- t.dsn_next + n;
  t.send_ends <- Ring.push t.send_ends t.dsn_next;
  pump t

(* Reinjection: a subflow's unacknowledged ranges, less what the data
   ACKs cover, go to the meta queue, walked in place. *)
let queue_hole t lo hi =
  t.reinject_q <- Ring.push (Ring.push t.reinject_q lo) hi

let queue_unacked t dsn len = Intervals.iter_holes t.acked dsn (dsn + len) queue_hole t

(* One call's ranges, in the order the walk meets them, go ahead of those
   queued before it: they are pushed at the back, and the older ones are
   then moved behind them. *)
let reinject t tcb =
  let before = Ring.length t.reinject_q in
  Tcb.iter_unacked tcb queue_unacked t;
  if Ring.length t.reinject_q > before then begin
    for _ = 1 to before do
      let x = Ring.get t.reinject_q 0 in
      Ring.pop t.reinject_q;
      t.reinject_q <- Ring.push t.reinject_q x
    done;
    pump t
  end

(* --- receive path ----------------------------------------------------------------- *)

let deliver_ready t =
  let len = ref (Reasm.pop_ready t.reasm ~rcv_nxt:t.rcv_nxt) in
  while !len > 0 do
    t.rcv_nxt <- t.rcv_nxt + !len;
    t.bytes_received <- t.bytes_received + !len;
    t.receive !len;
    (* The event is built only for a listener to see, and reused while
       deliveries keep one size (an MSS): events are immutable values. *)
    (match t.listeners with
    | [] -> ()
    | listeners ->
        (match t.data_event with
        | Data_received n when n = !len -> ()
        | _ -> t.data_event <- Data_received !len);
        emit_to t.data_event listeners);
    len := Reasm.pop_ready t.reasm ~rcv_nxt:t.rcv_nxt
  done
[@@smapp.hot]

let on_subflow_data t ~dsn ~len =
  let skip = max 0 (t.rcv_nxt - dsn) in
  if skip < len then
    Reasm.insert t.reasm ~seq:(dsn + skip) ~len:(len - skip) ~dsn:(dsn + skip);
  deliver_ready t
[@@smapp.hot]

(* --- option processing ---------------------------------------------------------- *)

let join_state_of t sf =
  match Hashtbl.find_opt t.joins sf.Subflow.id with
  | Some js -> js
  | None ->
      let js = { j_local_nonce = 0L; j_remote_nonce = None } in
      Hashtbl.replace t.joins sf.Subflow.id js;
      js

let verify_join_synack t sf ~hmac ~nonce =
  match t.remote_key with
  | None -> false
  | Some remote_key ->
      let js = join_state_of t sf in
      let expected =
        Crypto.join_hmac ~local_key:remote_key ~remote_key:t.local_key ~local_nonce:nonce
          ~remote_nonce:js.j_local_nonce
      in
      let ok = String.equal hmac expected in
      if ok then js.j_remote_nonce <- Some nonce;
      ok

let verify_join_ack t sf ~hmac =
  match (t.remote_key, Hashtbl.find_opt t.joins sf.Subflow.id) with
  | Some remote_key, Some js -> (
      match js.j_remote_nonce with
      | Some remote_nonce ->
          let expected =
            Crypto.join_hmac ~local_key:remote_key ~remote_key:t.local_key
              ~local_nonce:remote_nonce ~remote_nonce:js.j_local_nonce
          in
          String.equal hmac expected
      | None -> false)
  | _ -> false

(* A client joiner proves itself with the third-ACK HMAC, over the nonce
   of the SYN/ACK it verified; [false] when no SYN/ACK was verified. *)
let send_join_ack t sf tcb =
  match (t.remote_key, Hashtbl.find_opt t.joins sf.Subflow.id) with
  | Some remote_key, Some { j_local_nonce; j_remote_nonce = Some remote_nonce } ->
      let hmac =
        Crypto.join_hmac ~local_key:t.local_key ~remote_key ~local_nonce:j_local_nonce
          ~remote_nonce
      in
      Tcb.send_ack_with_options tcb [ Options.Mp_join_ack { hmac } ];
      true
  | _ -> false

let set_remote_key t key =
  t.remote_key <- Some key;
  t.remote_token <- Some (Crypto.token key)

let process_option t sf = function
  | Options.Mp_capable { key } -> if t.remote_key = None then set_remote_key t key
  | Options.Mp_join_synack { hmac; nonce; addr_id = _; backup = _ } ->
      if not (verify_join_synack t sf ~hmac ~nonce) then Tcb.abort sf.Subflow.tcb
  | Options.Mp_join_ack { hmac } ->
      if not (verify_join_ack t sf ~hmac) then Tcb.abort sf.Subflow.tcb
  | Options.Add_addr { addr_id; addr; port } ->
      if not (List.mem_assoc addr_id t.remote_addrs) then begin
        let ep = Ip.endpoint addr port in
        t.remote_addrs <- t.remote_addrs @ [ (addr_id, ep) ];
        emit t (Remote_add_addr (addr_id, ep))
      end
  | Options.Remove_addr { addr_id } ->
      if List.mem_assoc addr_id t.remote_addrs then begin
        t.remote_addrs <- List.remove_assoc addr_id t.remote_addrs;
        emit t (Remote_rem_addr addr_id)
      end
  | Options.Mp_prio { backup } -> Tcb.set_backup sf.Subflow.tcb backup
  | Options.Mp_fastclose _ ->
      (* peer killed the whole connection *)
      abort_internal t ~notify_peer:false
  | Options.Mp_join _ -> () (* handled at accept time *)
  | _ -> ()

(* --- subflow callbacks ------------------------------------------------------------ *)

(* The subflow a callback's TCB belongs to. A subflow is registered as
   soon as its TCB exists, before the engine runs again, so before any of
   its callbacks can fire. *)
let rec subflow_of tcb = function
  | sf :: rest -> if sf.Subflow.tcb == tcb then sf else subflow_of tcb rest
  | [] -> Bug.fail "Connection: subflow callback fired before registration"

(* Every subflow's callbacks, one record per connection. *)
let callbacks t =
  {
    Tcb.on_established =
      (fun tcb ->
        let sf = subflow_of tcb t.subflow_list in
        (* RFC 6824 §3.6: a join SYN/ACK without a verified MP_JOIN is
           answered with RST, never established *)
        if (not sf.Subflow.is_initial) && t.role = Client && not (send_join_ack t sf tcb)
        then Tcb.abort tcb
        else begin
          if sf.Subflow.is_initial then begin
            t.is_established <- true;
            note_phase t;
            emit t Established
          end;
          emit t (Subflow_established sf);
          pump t
        end);
    on_data = (fun _ ~dsn ~len -> on_subflow_data t ~dsn ~len);
    on_fin =
      (fun _ ->
        (* the peer is closing the connection: close our side once drained *)
        if not t.closing then begin
          t.closing <- true;
          note_phase t;
          progress_close t
        end);
    on_can_send = (fun _ -> pump t);
    on_rto_event =
      (fun tcb rto count ->
        emit t (Subflow_rto (subflow_of tcb t.subflow_list, rto, count));
        (* an opportunistic copy of the struggling subflow's outstanding
           data: other subflows take it as their windows open, while this
           one keeps retransmitting (paper §4.3 observes both) *)
        if count = 1 then reinject t tcb);
    on_close =
      (fun tcb err ->
        let sf = subflow_of tcb t.subflow_list in
        t.subflow_list <-
          List.filter (fun s -> s.Subflow.id <> sf.Subflow.id) t.subflow_list;
        Cc.leave t.lia (Tcb.cc tcb);
        Hashtbl.remove t.joins sf.Subflow.id;
        reinject t tcb;
        emit t (Subflow_closed (sf, err));
        finish_if_done t;
        if not t.is_closed then pump t);
    on_chunk_acked =
      (fun _ ~dsn ~len ->
        Intervals.add t.acked dsn (dsn + len);
        progress_close t);
    on_options =
      (fun tcb seg ->
        List.iter (process_option t (subflow_of tcb t.subflow_list)) seg.Segment.options);
  }

let register_subflow t tcb ~initial =
  let sf = { Subflow.id = t.next_subflow_id; tcb; is_initial = initial } in
  t.next_subflow_id <- t.next_subflow_id + 1;
  if Atomic.get Tcb.checks_enabled then (Atomic.get subflow_open_hook) ~id:t.id (phase t);
  t.subflow_list <- t.subflow_list @ [ sf ];
  Cc.join t.lia (Tcb.cc tcb);
  sf

(* --- public control-plane commands -------------------------------------------------- *)

(* A local address's id, numbered on first use. *)
let local_addr_id t addr =
  match List.find_opt (fun (_, a) -> Ip.equal a addr) t.local_addr_ids with
  | Some (id, _) -> id
  | None ->
      let id = t.next_local_addr_id in
      t.next_local_addr_id <- id + 1;
      t.local_addr_ids <- (id, addr) :: t.local_addr_ids;
      id

let add_subflow t ~src ?src_port ?dst ?(backup = false) () =
  if t.is_closed then Error "connection closed"
    (* once the FINs are out a new subflow would never be closed in turn *)
  else if t.fin_sent then Error "connection closing"
  else begin
    match t.remote_token with
    | None -> Error "connection not established"
    | Some token ->
        let dst = Option.value dst ~default:t.initial_flow.Ip.dst in
        let nonce = Rng.int64 t.deps.dep_rng in
        let addr_id = local_addr_id t src in
        (match
           (* reject duplicate four-tuples up front for a clean error *)
           src_port
         with
        | Some p
          when Stack.find t.deps.dep_stack
                 (Ip.flow ~src:(Ip.endpoint src p) ~dst)
               <> None ->
            Error "four-tuple already in use"
        | _ -> (
            try
              let tcb =
                Stack.connect t.deps.dep_stack ~src ~dst ?src_port
                  ~config:t.deps.dep_tcb_config ~backup
                  ~syn_options:[ Options.Mp_join { token; nonce; addr_id; backup } ]
                  t.cbs
              in
              let sf = register_subflow t tcb ~initial:false in
              (join_state_of t sf).j_local_nonce <- nonce;
              Ok sf
            with Invalid_argument msg | Failure msg -> Error msg))
  end

let remove_subflow t sf =
  if List.exists (fun s -> s.Subflow.id = sf.Subflow.id) t.subflow_list then
    Tcb.abort sf.Subflow.tcb

let set_subflow_backup t sf backup =
  if List.exists (fun s -> s.Subflow.id = sf.Subflow.id) t.subflow_list then begin
    Tcb.set_backup sf.Subflow.tcb backup;
    Tcb.send_ack_with_options sf.Subflow.tcb [ Options.Mp_prio { backup } ];
    pump t
  end

let announce_addr t addr port =
  let addr_id = local_addr_id t addr in
  match first_established_tcb t with
  | Some tcb ->
      Tcb.send_ack_with_options tcb [ Options.Add_addr { addr_id; addr; port } ]
  | None -> ()

let withdraw_addr t addr =
  match List.find_opt (fun (_, a) -> Ip.equal a addr) t.local_addr_ids with
  | None -> ()
  | Some (addr_id, _) -> (
      t.local_addr_ids <- List.remove_assoc addr_id t.local_addr_ids;
      match first_established_tcb t with
      | Some tcb -> Tcb.send_ack_with_options tcb [ Options.Remove_addr { addr_id } ]
      | None -> ())

let close t =
  if not t.closing then begin
    t.closing <- true;
    note_phase t;
    progress_close t
  end

let abort t = abort_internal t ~notify_peer:true

(* --- constructors --------------------------------------------------------------------- *)

let make deps ~scheduler ~role ~initial_flow =
  let local_key, local_token = Crypto.draw_key deps.dep_rng ~in_use:deps.dep_token_in_use in
  let t =
    {
      deps;
      role;
      id = 1 + Atomic.fetch_and_add next_conn_id 1;
      sched = scheduler;
      local_key;
      local_token;
      remote_key = None;
      remote_token = None;
      initial_flow;
      subflow_list = [];
      next_subflow_id = 0;
      next_local_addr_id = 1;
      local_addr_ids = [ (0, initial_flow.Ip.src.Ip.addr) ];
      remote_addrs = [];
      listeners = [];
      data_event = Closed;
      receive = no_receiver;
      join_policy = (fun _ _ -> true);
      joins = Hashtbl.create 7;
      cbs = Tcb.null_callbacks (* set below: the callbacks need [t] *);
      send_ends = Ring.empty ();
      sched_next = 0;
      reinject_q = Ring.empty ();
      dsn_next = 0;
      acked = Intervals.create ();
      lia = Cc.group ();
      reasm = Reasm.create ();
      rcv_nxt = 0;
      bytes_received = 0;
      is_established = false;
      closing = false;
      fin_sent = false;
      is_closed = false;
      pumping = false;
      last_phase = P_init;
    }
  in
  t.cbs <- callbacks t;
  t

let create_client deps ~scheduler ~src ~dst () =
  (* the source port is ephemeral: fill the flow in after connect *)
  let placeholder_flow = Ip.flow ~src:(Ip.endpoint src 0) ~dst in
  let t = make deps ~scheduler ~role:Client ~initial_flow:placeholder_flow in
  let tcb =
    Stack.connect deps.dep_stack ~src ~dst ~config:deps.dep_tcb_config
      ~syn_options:[ Options.Mp_capable { key = t.local_key } ]
      t.cbs
  in
  t.initial_flow <- Tcb.flow tcb;
  ignore (register_subflow t tcb ~initial:true);
  t

let create_server deps ~scheduler ~syn ~client_key =
  let initial_flow = Ip.reverse syn.Segment.flow in
  let t = make deps ~scheduler ~role:Server ~initial_flow in
  set_remote_key t client_key;
  let accept =
    {
      Stack.acc_config = Some deps.dep_tcb_config;
      acc_synack_options = [ Options.Mp_capable { key = t.local_key } ];
      acc_callbacks = t.cbs;
      acc_on_created = (fun tcb -> ignore (register_subflow t tcb ~initial:true));
    }
  in
  (t, accept)

let attach_join t ~syn ~join =
  let token, client_nonce, remote_addr_id, backup = join in
  if t.is_closed || t.fin_sent || token <> t.local_token then None
  else if not (t.join_policy t syn) then None
  else begin
    match t.remote_key with
    | None -> None
    | Some remote_key ->
        let server_nonce = Rng.int64 t.deps.dep_rng in
        let hmac =
          Crypto.join_hmac ~local_key:t.local_key ~remote_key ~local_nonce:server_nonce
            ~remote_nonce:client_nonce
        in
        Some
          {
            Stack.acc_config = Some t.deps.dep_tcb_config;
            acc_synack_options =
              [
                Options.Mp_join_synack
                  { hmac; nonce = server_nonce; addr_id = remote_addr_id; backup };
              ];
            acc_callbacks = t.cbs;
            acc_on_created =
              (fun tcb ->
                Tcb.set_backup tcb backup;
                let js = join_state_of t (register_subflow t tcb ~initial:false) in
                js.j_local_nonce <- server_nonce;
                js.j_remote_nonce <- Some client_nonce);
          }
  end
