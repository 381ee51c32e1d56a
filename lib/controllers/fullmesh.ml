module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_sim
open Smapp_netsim

type config = {
  local_addresses : Ip.t list;
  reconnect_after_reset : Time.span;
  reconnect_after_refused : Time.span;
  reconnect_after_unreachable : Time.span;
  reconnect_after_timeout : Time.span;
  reconnect_max_delay : Time.span;
  max_reconnect_attempts : int;
}

let default_config ?(local_addresses = []) () =
  {
    local_addresses;
    reconnect_after_reset = Time.span_s 1;
    reconnect_after_refused = Time.span_s 2;
    reconnect_after_unreachable = Time.span_s 5;
    reconnect_after_timeout = Time.span_s 3;
    reconnect_max_delay = Time.span_s 60;
    max_reconnect_attempts = 10;
  }

(* Pure so the errno split is unit-testable: the per-errno base delay grows
   exponentially with the attempt number, capped at [reconnect_max_delay]. *)
let reconnect_delay config ?(attempt = 0) error =
  match error with
  | None -> Time.span_zero (* orderly close: do not resurrect *)
  | Some e ->
      let base =
        match e with
        | Smapp_tcp.Tcp_error.Econnreset -> config.reconnect_after_reset
        | Smapp_tcp.Tcp_error.Econnrefused -> config.reconnect_after_refused
        | Smapp_tcp.Tcp_error.Enetunreach | Smapp_tcp.Tcp_error.Ehostunreach ->
            config.reconnect_after_unreachable
        | Smapp_tcp.Tcp_error.Etimedout -> config.reconnect_after_timeout
      in
      Smapp_core.Retry.delay_for
        {
          Smapp_core.Retry.base;
          factor = 2.0;
          max_delay = config.reconnect_max_delay;
          max_attempts = config.max_reconnect_attempts;
          jitter = 0.0;
        }
        ~attempt

let m_subflow_requests =
  Smapp_obs.Metrics.counter ~help:"Create_subflow commands issued by full-mesh controllers"
    "ctrl_subflow_requests_total"

let m_reconnects =
  Smapp_obs.Metrics.counter ~help:"subflow reconnects scheduled after errors"
    "ctrl_reconnects_total"

let note_subflow_request () =
  Smapp_obs.Metrics.incr m_subflow_requests;
  Smapp_obs.Trace.instant ~cat:"controller" "subflow-request"

let note_reconnect () =
  Smapp_obs.Metrics.incr m_reconnects;
  Smapp_obs.Trace.instant ~cat:"controller" "reconnect-scheduled"

let m_stale_suppressed =
  Smapp_obs.Metrics.counter
    ~help:"reconnects suppressed because the source address was gone"
    "ctrl_stale_reconnects_suppressed_total"

let m_backoff_resets =
  Smapp_obs.Metrics.counter
    ~help:"reconnect budgets reset by a genuine subflow recovery"
    "ctrl_backoff_resets_total"

type t = {
  view : Conn_view.t;
  config : config;
  mutable locals : Ip.t list;
  mutable created : int;
  mutable reconnects : int;
  mutable stale_suppressed : int;
  mutable backoff_resets : int;
  (* (token, src, dst) pairs already requested, to keep the mesh idempotent;
     insertion-ordered so the teardown sweep below is deterministic *)
  requested : (int * int * int * int, int) Otable.t; (* -> reconnect attempts *)
}

let view t = t.view
let subflows_created t = t.created
let reconnects_scheduled t = t.reconnects
let stale_reconnects_suppressed t = t.stale_suppressed
let backoff_resets t = t.backoff_resets
let local_addresses t = t.locals

let key token src (dst : Ip.endpoint) =
  (token, Ip.to_int src, Ip.to_int dst.Ip.addr, dst.Ip.port)

let spawn t (conn : Conn_view.conn) src dst =
  let k = key conn.Conn_view.cv_token src dst in
  if not (Otable.mem t.requested k) then begin
    Otable.add t.requested k 0;
    t.created <- t.created + 1;
    note_subflow_request ();
    Pm_lib.create_subflow (Conn_view.pm t.view) ~token:conn.Conn_view.cv_token ~src ~dst ()
  end

let remote_endpoints (conn : Conn_view.conn) =
  conn.Conn_view.cv_initial_flow.Ip.dst
  :: List.map snd conn.Conn_view.cv_remote_addrs

(* (Re)build the mesh for one connection. *)
let mesh t conn =
  if conn.Conn_view.cv_established then
    List.iter
      (fun src -> List.iter (fun dst -> spawn t conn src dst) (remote_endpoints conn))
      t.locals

let note_stale t =
  t.stale_suppressed <- t.stale_suppressed + 1;
  Smapp_obs.Metrics.incr m_stale_suppressed

let schedule_reconnect t (conn : Conn_view.conn) (sub : Conn_view.sub) error =
  if error <> None then begin
    let flow = sub.Conn_view.sv_flow in
    let src = flow.Ip.src.Ip.addr and dst = flow.Ip.dst in
    if not (List.exists (Ip.equal src) t.locals) then
      (* the interface is gone (handover): reconnecting from a dead address
         can only fail; the [New_local_addr] handler rebuilds the mesh if
         and when the address returns *)
      note_stale t
    else begin
      let k = key conn.Conn_view.cv_token src dst in
      let attempts = match Otable.find t.requested k with Some n -> n | None -> 0 in
      let delay = reconnect_delay t.config ~attempt:attempts error in
      if attempts < t.config.max_reconnect_attempts then begin
        Otable.add t.requested k (attempts + 1);
        t.reconnects <- t.reconnects + 1;
        note_reconnect ();
        ignore
          (Engine.after (Pm_lib.engine (Conn_view.pm t.view)) delay (fun () ->
               (* only if the connection still exists and the pair is absent *)
               match Conn_view.find t.view conn.Conn_view.cv_token with
               | Some conn ->
                   let already =
                     List.exists
                       (fun s ->
                         Ip.equal s.Conn_view.sv_flow.Ip.src.Ip.addr src
                         && Ip.equal_endpoint s.Conn_view.sv_flow.Ip.dst dst)
                       conn.Conn_view.cv_subs
                   in
                   if already then ()
                   else if not (List.exists (Ip.equal src) t.locals) then
                     (* the address vanished while the timer was pending *)
                     note_stale t
                   else begin
                     t.created <- t.created + 1;
                     note_subflow_request ();
                     Pm_lib.create_subflow (Conn_view.pm t.view)
                       ~token:conn.Conn_view.cv_token ~src ~dst ()
                   end
               | None -> ()))
      end
    end
  end

(* === per-connection instantiation ============================================ *)

type mesh_state = {
  ms_config : config;
  mutable ms_created : int;
}

let mesh_state config = { ms_config = config; ms_created = 0 }
let mesh_subflows_created s = s.ms_created

(* The same mesh-and-reconnect policy as [start], scoped to one connection:
   state lives in the instance closure, so a factory can run thousands of
   these off one shared view. *)
let per_conn state factory (conn0 : Conn_view.conn) =
  let config = state.ms_config in
  let pm = Factory.pm factory in
  let token = conn0.Conn_view.cv_token in
  let requested : (int * int * int, int) Otable.t = Otable.create ~size:8 () in
  let key src (dst : Ip.endpoint) =
    (Ip.to_int src, Ip.to_int dst.Ip.addr, dst.Ip.port)
  in
  let spawn src dst =
    let k = key src dst in
    if not (Otable.mem requested k) then begin
      Otable.add requested k 0;
      state.ms_created <- state.ms_created + 1;
      note_subflow_request ();
      Pm_lib.create_subflow pm ~token ~src ~dst ()
    end
  in
  let mesh conn =
    if conn.Conn_view.cv_established then
      List.iter
        (fun src -> List.iter (spawn src) (remote_endpoints conn))
        config.local_addresses
  in
  let on_established conn =
    let flow = conn.Conn_view.cv_initial_flow in
    Otable.add requested (key flow.Ip.src.Ip.addr flow.Ip.dst) 0;
    mesh conn
  in
  let on_sub_established _conn (sub : Conn_view.sub) =
    (* genuine recovery resets the pair's backoff budget *)
    let flow = sub.Conn_view.sv_flow in
    let k = key flow.Ip.src.Ip.addr flow.Ip.dst in
    (match Otable.find requested k with
    | Some n when n > 0 -> Smapp_obs.Metrics.incr m_backoff_resets
    | Some _ | None -> ());
    Otable.add requested k 0
  in
  let on_sub_closed _conn (sub : Conn_view.sub) error =
    if error <> None then begin
      let flow = sub.Conn_view.sv_flow in
      let src = flow.Ip.src.Ip.addr and dst = flow.Ip.dst in
      let k = key src dst in
      let attempts =
        match Otable.find requested k with Some n -> n | None -> 0
      in
      if attempts < config.max_reconnect_attempts then begin
        Otable.add requested k (attempts + 1);
        note_reconnect ();
        let delay = reconnect_delay config ~attempt:attempts error in
        ignore
          (Engine.after (Pm_lib.engine pm) delay (fun () ->
               match Conn_view.find (Factory.view factory) token with
               | Some conn ->
                   let already =
                     List.exists
                       (fun s ->
                         Ip.equal s.Conn_view.sv_flow.Ip.src.Ip.addr src
                         && Ip.equal_endpoint s.Conn_view.sv_flow.Ip.dst dst)
                       conn.Conn_view.cv_subs
                   in
                   if (not already) && List.exists (Ip.equal src) config.local_addresses
                   then begin
                     state.ms_created <- state.ms_created + 1;
                     note_subflow_request ();
                     Pm_lib.create_subflow pm ~token ~src ~dst ()
                   end
               | None -> ()))
      end
    end
  in
  { Factory.null_events with Factory.on_established; on_sub_established; on_sub_closed }

let start pm config =
  let t_ref = ref None in
  let on_event _view ev =
    match !t_ref with
    | None -> ()
    | Some t -> (
        match ev with
        | Pm_msg.New_local_addr { addr; _ } ->
            if not (List.exists (Ip.equal addr) t.locals) then begin
              t.locals <- t.locals @ [ addr ];
              (* handover return: forget request marks for pairs from this
                 address that have no live subflow any more, so the mesh
                 below rebuilds them with a fresh reconnect budget *)
              let src_int = Ip.to_int addr in
              Otable.iter
                (fun ((tk, s, d, p) as k) _ ->
                  if s = src_int then begin
                    let live =
                      match Conn_view.find t.view tk with
                      | None -> false
                      | Some conn ->
                          List.exists
                            (fun sub ->
                              let f = sub.Conn_view.sv_flow in
                              Ip.to_int f.Ip.src.Ip.addr = s
                              && Ip.to_int f.Ip.dst.Ip.addr = d
                              && f.Ip.dst.Ip.port = p)
                            conn.Conn_view.cv_subs
                    in
                    if not live then Otable.remove t.requested k
                  end)
                t.requested;
              List.iter (mesh t) (Conn_view.conns t.view)
            end
        | Pm_msg.Del_local_addr { addr; _ } ->
            t.locals <- List.filter (fun a -> not (Ip.equal a addr)) t.locals
        | Pm_msg.Add_addr { token; _ } -> (
            match Conn_view.find t.view token with
            | Some conn -> mesh t conn
            | None -> ())
        | Pm_msg.Created _ | Pm_msg.Estab _ | Pm_msg.Closed _ | Pm_msg.Sub_estab _
        | Pm_msg.Sub_closed _ | Pm_msg.Timeout _ | Pm_msg.Rem_addr _ ->
            ())
  in
  let view =
    Conn_view.create pm
      ~extra_mask:(Pm_msg.Mask.new_local_addr lor Pm_msg.Mask.del_local_addr)
      ~on_event ()
  in
  let t =
    {
      view;
      config;
      locals = config.local_addresses;
      created = 0;
      reconnects = 0;
      stale_suppressed = 0;
      backoff_resets = 0;
      requested = Otable.create ~size:16 ();
    }
  in
  t_ref := Some t;
  Conn_view.on_conn_established view (fun conn ->
      (* the initial subflow's pair is taken *)
      let flow = conn.Conn_view.cv_initial_flow in
      Otable.add t.requested
        (key conn.Conn_view.cv_token flow.Ip.src.Ip.addr flow.Ip.dst)
        0;
      mesh t conn);
  Conn_view.on_sub_established view (fun conn sub ->
      (* genuine recovery: the pair is live again, so its backoff budget
         starts over (and pairs we never requested get marked as taken) *)
      let flow = sub.Conn_view.sv_flow in
      let k = key conn.Conn_view.cv_token flow.Ip.src.Ip.addr flow.Ip.dst in
      (match Otable.find t.requested k with
      | Some n when n > 0 ->
          t.backoff_resets <- t.backoff_resets + 1;
          Smapp_obs.Metrics.incr m_backoff_resets
      | Some _ | None -> ());
      Otable.add t.requested k 0);
  Conn_view.on_sub_closed view (fun conn sub error -> schedule_reconnect t conn sub error);
  Conn_view.on_conn_closed view (fun conn ->
      (* forget this connection's request marks *)
      let token = conn.Conn_view.cv_token in
      (* request-order sweep: Otable.iter visits insertion order and
         tolerates removing the binding under iteration *)
      Otable.iter
        (fun ((tk, _, _, _) as k) _ ->
          if tk = token then Otable.remove t.requested k)
        t.requested);
  t
