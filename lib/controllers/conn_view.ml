module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
module Otable = Smapp_sim.Otable
open Smapp_netsim

type sub = { sv_id : int; sv_flow : Ip.flow }

type handlers = {
  on_established : conn -> unit;
  on_sub_established : conn -> sub -> unit;
  on_sub_closed : conn -> sub -> Smapp_tcp.Tcp_error.t option -> unit;
  on_timeout : conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit;
  on_closed : conn -> unit;
}

and conn = {
  cv_token : int;
  cv_initial_flow : Ip.flow;
  mutable cv_established : bool;
  mutable cv_subs : sub list;
  mutable cv_remote_addrs : (int * Ip.endpoint) list;
  mutable cv_handlers : handlers;
}

let null_handlers =
  {
    on_established = (fun _ -> ());
    on_sub_established = (fun _ _ -> ());
    on_sub_closed = (fun _ _ _ -> ());
    on_timeout = (fun _ ~sub_id:_ ~rto:_ ~count:_ -> ());
    on_closed = (fun _ -> ());
  }

type t = {
  pm : Pm_lib.t;
  conn_tbl : (int, conn) Otable.t; (* token -> conn, registration order *)
  mutable make : conn -> handlers;
  mutable event_cbs : (Pm_msg.event -> unit) list;
}

let pm t = t.pm
let conns t = Otable.to_list t.conn_tbl
let find t token = match Otable.find t.conn_tbl token with c -> Some c | exception Not_found -> None

(* The per-event walks of a subflow list build no closure and no option:
   [sub_in] raises [Not_found], and [without_sub] drops every [id] and
   shares the cells after the last, so a list without it comes back
   as it was. *)
let rec sub_in id = function
  | [] -> raise Not_found
  | s :: rest -> if s.sv_id = id then s else sub_in id rest

let rec without_sub id subs =
  match subs with
  | [] -> subs
  | s :: rest ->
      let rest' = without_sub id rest in
      if s.sv_id = id then rest' else if rest' == rest then subs else s :: rest'

let find_sub conn sub_id =
  match sub_in sub_id conn.cv_subs with s -> Some s | exception Not_found -> None

let control t make = t.make <- make
let on_event t f = t.event_cbs <- t.event_cbs @ [ f ]

(* The event hooks are walked by hand: [List.iter (fun f -> f ev)] would
   build a closure per event. *)
let rec fire ev = function
  | [] -> ()
  | f :: fs ->
      f ev;
      fire ev fs

(* An event's update of the connection it names, once the view has it. *)
let update t conn = function
  | Pm_msg.Estab _ ->
      conn.cv_established <- true;
      conn.cv_handlers.on_established conn
  | Pm_msg.Closed { token } ->
      Otable.remove t.conn_tbl token;
      conn.cv_handlers.on_closed conn
  | Pm_msg.Sub_estab { sub_id; flow; _ } ->
      let sub = { sv_id = sub_id; sv_flow = flow } in
      conn.cv_subs <- conn.cv_subs @ [ sub ];
      conn.cv_handlers.on_sub_established conn sub
  | Pm_msg.Sub_closed { sub_id; flow; error; _ } ->
      let sub =
        match sub_in sub_id conn.cv_subs with
        | s -> s
        | exception Not_found -> { sv_id = sub_id; sv_flow = flow }
      in
      conn.cv_subs <- without_sub sub_id conn.cv_subs;
      conn.cv_handlers.on_sub_closed conn sub error
  | Pm_msg.Timeout { sub_id; rto; count; _ } ->
      conn.cv_handlers.on_timeout conn ~sub_id ~rto ~count
  | Pm_msg.Add_addr { addr_id; endpoint; _ } ->
      if not (List.mem_assoc addr_id conn.cv_remote_addrs) then
        conn.cv_remote_addrs <- conn.cv_remote_addrs @ [ (addr_id, endpoint) ]
  | Pm_msg.Rem_addr { addr_id; _ } ->
      conn.cv_remote_addrs <- List.remove_assoc addr_id conn.cv_remote_addrs
  | Pm_msg.Created _ | Pm_msg.New_local_addr _ | Pm_msg.Del_local_addr _ -> ()

(* The view's one update path: live events and a resync's replayed ones
   both come through here, and each reaches the handlers its connection
   was given when it entered the view. *)
let handle t ev =
  (match ev with
  | Pm_msg.Created { token; flow; sub_id = _ } ->
      if not (Otable.mem t.conn_tbl token) then begin
        let conn =
          {
            cv_token = token;
            cv_initial_flow = flow;
            cv_established = false;
            cv_subs = [];
            cv_remote_addrs = [];
            cv_handlers = null_handlers;
          }
        in
        Otable.add t.conn_tbl token conn;
        conn.cv_handlers <- t.make conn
      end
  | Pm_msg.Estab { token } | Pm_msg.Closed { token } | Pm_msg.Sub_estab { token; _ }
  | Pm_msg.Sub_closed { token; _ } | Pm_msg.Timeout { token; _ } | Pm_msg.Add_addr { token; _ }
  | Pm_msg.Rem_addr { token; _ } -> (
      match Otable.find t.conn_tbl token with
      | conn -> update t conn ev
      | exception Not_found -> ())
  | Pm_msg.New_local_addr _ | Pm_msg.Del_local_addr _ -> ());
  fire ev t.event_cbs

(* After an event gap or daemon restart the view may have drifted from the
   kernel in either direction; a [Dump] snapshot is authoritative. Each
   difference is replayed through [handle] as the event that was lost, so
   controllers need no resync-specific code. *)
let reconcile t snapshots =
  List.iter
    (fun { Pm_msg.cs_token = token; cs_initial_flow; cs_established; cs_subs } ->
      handle t (Pm_msg.Created { token; flow = cs_initial_flow; sub_id = 0 });
      let conn = Otable.find t.conn_tbl token in
      if cs_established && not conn.cv_established then handle t (Pm_msg.Estab { token });
      List.iter
        (fun { Pm_msg.ss_sub_id = sub_id; ss_flow = flow; ss_backup = backup } ->
          if find_sub conn sub_id = None then
            handle t (Pm_msg.Sub_estab { token; sub_id; flow; backup }))
        cs_subs;
      (* the close reason was in the lost event; Etimedout is the
         conservative guess that makes controllers re-establish *)
      let error = Some Smapp_tcp.Tcp_error.Etimedout in
      List.iter
        (fun { sv_id = sub_id; sv_flow = flow; _ } ->
          if not (List.exists (fun ss -> ss.Pm_msg.ss_sub_id = sub_id) cs_subs) then
            handle t (Pm_msg.Sub_closed { token; sub_id; flow; error }))
        conn.cv_subs)
    snapshots;
  List.iter
    (fun c ->
      if not (List.exists (fun s -> s.Pm_msg.cs_token = c.cv_token) snapshots) then
        handle t (Pm_msg.Closed { token = c.cv_token }))
    (conns t)

let base_mask =
  Pm_msg.Mask.created lor Pm_msg.Mask.estab lor Pm_msg.Mask.closed
  lor Pm_msg.Mask.sub_estab lor Pm_msg.Mask.sub_closed lor Pm_msg.Mask.add_addr
  lor Pm_msg.Mask.rem_addr

let create pm ?(extra_mask = 0) () =
  let t =
    { pm; conn_tbl = Otable.create (); make = (fun _ -> null_handlers); event_cbs = [] }
  in
  Pm_lib.on_event pm ~mask:(base_mask lor extra_mask) (handle t);
  Pm_lib.on_resync pm (reconcile t);
  t
