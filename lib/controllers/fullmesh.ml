module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_sim
open Smapp_netsim

type config = { local_addresses : Ip.t list }

let default_config ?(local_addresses = []) () = { local_addresses }
let max_reconnect_attempts = 10

(* Pure so the errno split is unit-testable: the per-errno base delay grows
   exponentially with the attempt number, capped at 60 s. *)
let reconnect_delay ?(attempt = 0) error =
  match error with
  | None -> Time.span_zero (* orderly close: do not resurrect *)
  | Some e ->
      let base_s =
        match e with
        | Smapp_tcp.Tcp_error.Econnreset -> 1
        | Smapp_tcp.Tcp_error.Econnrefused -> 2
        | Smapp_tcp.Tcp_error.Etimedout -> 3
        | Smapp_tcp.Tcp_error.Enetunreach | Smapp_tcp.Tcp_error.Ehostunreach -> 5
      in
      Smapp_core.Retry.delay_for
        {
          Smapp_core.Retry.base = Time.span_s base_s;
          factor = 2.0;
          max_delay = Time.span_s 60;
          max_attempts = max_reconnect_attempts;
          jitter = 0.0;
        }
        ~attempt

let m_subflow_requests =
  Smapp_obs.Metrics.counter ~help:"Create_subflow commands issued by full-mesh controllers"
    "ctrl_subflow_requests_total"

let m_reconnects =
  Smapp_obs.Metrics.counter ~help:"subflow reconnects scheduled after errors"
    "ctrl_reconnects_total"

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
  mutable locals : Ip.t list;
  mutable created : int;
  mutable reconnects : int;
  mutable stale_suppressed : int;
  mutable backoff_resets : int;
  (* per token: the (src, dst, port) pairs already requested, to keep the
     mesh idempotent -> reconnect attempts; insertion-ordered so the
     handover sweep in [on_address] is deterministic *)
  requested : (int, (int * int * int, int) Otable.t) Hashtbl.t;
}

let view t = t.view
let subflows_created t = t.created
let reconnects_scheduled t = t.reconnects
let stale_reconnects_suppressed t = t.stale_suppressed
let backoff_resets t = t.backoff_resets
let local_addresses t = t.locals

let key src (dst : Ip.endpoint) = (Ip.to_int src, Ip.to_int dst.Ip.addr, dst.Ip.port)

let pairs t (conn : Conn_view.conn) =
  let token = conn.Conn_view.cv_token in
  match Hashtbl.find t.requested token with
  | p -> p
  | exception Not_found ->
      let p = Otable.create ~size:8 () in
      Hashtbl.replace t.requested token p;
      p

let request t (conn : Conn_view.conn) src dst =
  t.created <- t.created + 1;
  Smapp_obs.Metrics.incr m_subflow_requests;
  Smapp_obs.Trace.instant ~cat:"controller" "subflow-request";
  Pm_lib.create_subflow (Conn_view.pm t.view) ~token:conn.Conn_view.cv_token ~src ~dst ()

let request_pair t conn requested src dst =
  let k = key src dst in
  if not (Otable.mem requested k) then begin
    Otable.add requested k 0;
    request t conn src dst
  end

(* (Re)build the mesh for one connection: from each local address, to
   the initial destination, then to each announced address. *)
let rec mesh_to t conn requested src = function
  | [] -> ()
  | (_, dst) :: rest ->
      request_pair t conn requested src dst;
      mesh_to t conn requested src rest

let rec mesh_from t (conn : Conn_view.conn) requested = function
  | [] -> ()
  | src :: rest ->
      request_pair t conn requested src conn.Conn_view.cv_initial_flow.Ip.dst;
      mesh_to t conn requested src conn.Conn_view.cv_remote_addrs;
      mesh_from t conn requested rest

let mesh t conn = if conn.Conn_view.cv_established then mesh_from t conn (pairs t conn) t.locals

(* a live subflow of [conn] already runs on pair [k] *)
let has_pair (conn : Conn_view.conn) k =
  List.exists
    (fun (sub : Conn_view.sub) ->
      let f = sub.Conn_view.sv_flow in
      key f.Ip.src.Ip.addr f.Ip.dst = k)
    conn.Conn_view.cv_subs

let note_stale t =
  t.stale_suppressed <- t.stale_suppressed + 1;
  Smapp_obs.Metrics.incr m_stale_suppressed

(* === the policy's handlers: [start] gives them to every connection of its
   own view, and [per_conn] to every connection of a factory's === *)

let on_established t (conn : Conn_view.conn) =
  (* the initial subflow's pair is taken *)
  let flow = conn.Conn_view.cv_initial_flow in
  Otable.add (pairs t conn) (key flow.Ip.src.Ip.addr flow.Ip.dst) 0;
  mesh t conn

let on_sub_established t conn (sub : Conn_view.sub) =
  (* genuine recovery: the pair is live again, so its backoff budget
     starts over (and pairs we never requested get marked as taken) *)
  let flow = sub.Conn_view.sv_flow in
  let requested = pairs t conn in
  let k = key flow.Ip.src.Ip.addr flow.Ip.dst in
  (match Otable.find requested k with
  | n when n > 0 ->
      t.backoff_resets <- t.backoff_resets + 1;
      Smapp_obs.Metrics.incr m_backoff_resets
  | _ | (exception Not_found) -> ());
  Otable.add requested k 0

let schedule_reconnect t (conn : Conn_view.conn) (sub : Conn_view.sub) error =
  if error <> None then begin
    let flow = sub.Conn_view.sv_flow in
    let src = flow.Ip.src.Ip.addr and dst = flow.Ip.dst in
    if not (List.exists (Ip.equal src) t.locals) then
      (* the interface is gone (handover): reconnecting from a dead address
         can only fail; [on_address] rebuilds the mesh if and when the
         address returns *)
      note_stale t
    else begin
      let requested = pairs t conn in
      let k = key src dst in
      let attempts = match Otable.find requested k with n -> n | exception Not_found -> 0 in
      if attempts < max_reconnect_attempts then begin
        Otable.add requested k (attempts + 1);
        t.reconnects <- t.reconnects + 1;
        Smapp_obs.Metrics.incr m_reconnects;
        Smapp_obs.Trace.instant ~cat:"controller" "reconnect-scheduled";
        let engine = Pm_lib.engine (Conn_view.pm t.view) in
        Engine.schedule engine
          (Time.add (Engine.now engine) (reconnect_delay ~attempt:attempts error))
          (fun () ->
            (* only if the connection still exists and the pair is absent *)
            match Conn_view.find t.view conn.Conn_view.cv_token with
            | Some conn when not (has_pair conn k) ->
                (* the address may have vanished while the timer was pending *)
                if List.exists (Ip.equal src) t.locals then request t conn src dst
                else note_stale t
            | Some _ | None -> ())
      end
    end
  end

let on_closed t (conn : Conn_view.conn) = Hashtbl.remove t.requested conn.Conn_view.cv_token

let on_address t = function
  | Pm_msg.New_local_addr { addr; _ } ->
      if not (List.exists (Ip.equal addr) t.locals) then begin
        t.locals <- t.locals @ [ addr ];
        (* handover return: forget request marks for pairs from this address
           that have no live subflow any more, so the mesh rebuilds them
           with a fresh reconnect budget *)
        let src = Ip.to_int addr in
        List.iter
          (fun (conn : Conn_view.conn) ->
            (match Hashtbl.find_opt t.requested conn.Conn_view.cv_token with
            | None -> ()
            | Some requested ->
                Otable.iter
                  (fun ((s, _, _) as k) _ ->
                    if s = src && not (has_pair conn k) then Otable.remove requested k)
                  requested);
            mesh t conn)
          (Conn_view.conns t.view)
      end
  | Pm_msg.Del_local_addr { addr; _ } ->
      t.locals <- List.filter (fun a -> not (Ip.equal a addr)) t.locals
  | Pm_msg.Add_addr { token; _ } -> (
      match Conn_view.find t.view token with
      | Some conn -> mesh t conn
      | None -> ())
  | Pm_msg.Created _ | Pm_msg.Estab _ | Pm_msg.Closed _ | Pm_msg.Sub_estab _
  | Pm_msg.Sub_closed _ | Pm_msg.Timeout _ | Pm_msg.Rem_addr _ ->
      ()

let create view config =
  {
    view;
    locals = config.local_addresses;
    created = 0;
    reconnects = 0;
    stale_suppressed = 0;
    backoff_resets = 0;
    requested = Hashtbl.create 16;
  }

(* Either wiring: [on_address] on the controller's view, and the handlers
   every connection gets. *)
let wire t =
  Conn_view.on_event t.view (on_address t);
  {
    Conn_view.null_handlers with
    on_established = on_established t;
    on_sub_established = on_sub_established t;
    on_sub_closed = schedule_reconnect t;
    on_closed = on_closed t;
  }

let start pm config =
  let view =
    Conn_view.create pm
      ~extra_mask:(Pm_msg.Mask.new_local_addr lor Pm_msg.Mask.del_local_addr)
      ()
  in
  let t = create view config in
  let h = wire t in
  Conn_view.control view (fun _ -> h);
  t

(* === per-connection instantiation ============================================ *)

type mesh_state = {
  ms_config : config;
  mutable ms_bound : (Factory.t * t * Factory.events) option;
}

let mesh_state config = { ms_config = config; ms_bound = None }

let mesh_subflows_created s =
  match s.ms_bound with Some (_, t, _) -> t.created | None -> 0

(* Every instance is the same handlers of one controller, built on the
   factory's view when its first connection appears. The factory subscribes
   to no local-address events, so only [Add_addr] reaches [on_address]. *)
let per_conn state factory (_ : Conn_view.conn) =
  match state.ms_bound with
  | Some (f, _, events) when f == factory -> events
  | Some _ -> invalid_arg "Fullmesh.per_conn: mesh_state already bound to another factory"
  | None ->
      let t = create (Factory.view factory) state.ms_config in
      let events = wire t in
      state.ms_bound <- Some (factory, t, events);
      events
