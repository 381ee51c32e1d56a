module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_netsim

type sub = { sv_id : int; sv_flow : Ip.flow }

type conn = {
  cv_token : int;
  cv_initial_flow : Ip.flow;
  mutable cv_established : bool;
  mutable cv_subs : sub list;
  mutable cv_remote_addrs : (int * Ip.endpoint) list;
}

type timeout_hook = conn -> sub_id:int -> rto:Smapp_sim.Time.span -> count:int -> unit

type t = {
  pm : Pm_lib.t;
  conn_tbl : (int, conn) Smapp_sim.Otable.t; (* token -> conn, registration order *)
  mutable created_cbs : (conn -> unit) list;
  mutable established_cbs : (conn -> unit) list;
  mutable closed_cbs : (conn -> unit) list;
  mutable sub_estab_cbs : (conn -> sub -> unit) list;
  mutable sub_closed_cbs : (conn -> sub -> Smapp_tcp.Tcp_error.t option -> unit) list;
  mutable timeout_cbs : timeout_hook list;
  mutable event_cbs : (Pm_msg.event -> unit) list;
}

let pm t = t.pm
let conns t = Smapp_sim.Otable.to_list t.conn_tbl
let find t token = Smapp_sim.Otable.find t.conn_tbl token
let find_sub conn sub_id = List.find_opt (fun s -> s.sv_id = sub_id) conn.cv_subs

let on_conn_created t f = t.created_cbs <- t.created_cbs @ [ f ]
let on_conn_established t f = t.established_cbs <- t.established_cbs @ [ f ]
let on_conn_closed t f = t.closed_cbs <- t.closed_cbs @ [ f ]
let on_sub_established t f = t.sub_estab_cbs <- t.sub_estab_cbs @ [ f ]
let on_sub_closed t f = t.sub_closed_cbs <- t.sub_closed_cbs @ [ f ]
let on_timeout t f = t.timeout_cbs <- t.timeout_cbs @ [ f ]
let on_event t f = t.event_cbs <- t.event_cbs @ [ f ]

(* Hook lists are walked by hand: [List.iter (fun f -> f conn)] would build
   a closure per event. *)
let rec fire1 x = function
  | [] -> ()
  | f :: fs ->
      f x;
      fire1 x fs

let rec fire2 x y = function
  | [] -> ()
  | f :: fs ->
      f x y;
      fire2 x y fs

let rec fire3 x y z = function
  | [] -> ()
  | f :: fs ->
      f x y z;
      fire3 x y z fs

let rec fire_timeout conn sub_id rto count = function
  | [] -> ()
  | (f : timeout_hook) :: fs ->
      f conn ~sub_id ~rto ~count;
      fire_timeout conn sub_id rto count fs

(* The view's one update path: live events and a resync's replayed ones
   both come through here. *)
let handle t ev =
  (match ev with
  | Pm_msg.Created { token; flow; sub_id = _ } ->
      if find t token = None then begin
        let conn =
          {
            cv_token = token;
            cv_initial_flow = flow;
            cv_established = false;
            cv_subs = [];
            cv_remote_addrs = [];
          }
        in
        Smapp_sim.Otable.add t.conn_tbl token conn;
        fire1 conn t.created_cbs
      end
  | Pm_msg.Estab { token } -> (
      match find t token with
      | Some conn ->
          conn.cv_established <- true;
          fire1 conn t.established_cbs
      | None -> ())
  | Pm_msg.Closed { token } -> (
      match find t token with
      | Some conn ->
          Smapp_sim.Otable.remove t.conn_tbl token;
          fire1 conn t.closed_cbs
      | None -> ())
  | Pm_msg.Sub_estab { token; sub_id; flow; backup = _ } -> (
      match find t token with
      | Some conn ->
          let sub = { sv_id = sub_id; sv_flow = flow } in
          conn.cv_subs <- conn.cv_subs @ [ sub ];
          fire2 conn sub t.sub_estab_cbs
      | None -> ())
  | Pm_msg.Sub_closed { token; sub_id; flow; error } -> (
      match find t token with
      | Some conn ->
          let sub =
            match find_sub conn sub_id with
            | Some s -> s
            | None -> { sv_id = sub_id; sv_flow = flow }
          in
          conn.cv_subs <- List.filter (fun s -> s.sv_id <> sub_id) conn.cv_subs;
          fire3 conn sub error t.sub_closed_cbs
      | None -> ())
  | Pm_msg.Timeout { token; sub_id; rto; count } -> (
      match find t token with
      | Some conn -> fire_timeout conn sub_id rto count t.timeout_cbs
      | None -> ())
  | Pm_msg.Add_addr { token; addr_id; endpoint } -> (
      match find t token with
      | Some conn ->
          if not (List.mem_assoc addr_id conn.cv_remote_addrs) then
            conn.cv_remote_addrs <- conn.cv_remote_addrs @ [ (addr_id, endpoint) ]
      | None -> ())
  | Pm_msg.Rem_addr { token; addr_id } -> (
      match find t token with
      | Some conn -> conn.cv_remote_addrs <- List.remove_assoc addr_id conn.cv_remote_addrs
      | None -> ())
  | Pm_msg.New_local_addr _ | Pm_msg.Del_local_addr _ -> ());
  fire1 ev t.event_cbs

(* After an event gap or daemon restart the view may have drifted from the
   kernel in either direction; a [Dump] snapshot is authoritative. Each
   difference is replayed through [handle] as the event that was lost, so
   controllers need no resync-specific code. *)
let reconcile t snapshots =
  List.iter
    (fun { Pm_msg.cs_token = token; cs_initial_flow; cs_established; cs_subs } ->
      handle t (Pm_msg.Created { token; flow = cs_initial_flow; sub_id = 0 });
      let conn = Option.get (find t token) in
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
    {
      pm;
      conn_tbl = Smapp_sim.Otable.create ();
      created_cbs = [];
      established_cbs = [];
      closed_cbs = [];
      sub_estab_cbs = [];
      sub_closed_cbs = [];
      timeout_cbs = [];
      event_cbs = [];
    }
  in
  Pm_lib.on_event pm ~mask:(base_mask lor extra_mask) (handle t);
  Pm_lib.on_resync pm (reconcile t);
  t
