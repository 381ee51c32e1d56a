module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_netsim

type sub = { sv_id : int; sv_flow : Ip.flow; sv_backup : bool }

type conn = {
  cv_token : int;
  cv_initial_flow : Ip.flow;
  mutable cv_established : bool;
  mutable cv_subs : sub list;
  mutable cv_remote_addrs : (int * Ip.endpoint) list;
}

type t = {
  pm : Pm_lib.t;
  conn_tbl : (int, conn) Smapp_sim.Otable.t; (* token -> conn, registration order *)
  mutable created_cbs : (conn -> unit) list;
  mutable established_cbs : (conn -> unit) list;
  mutable closed_cbs : (conn -> unit) list;
  mutable sub_estab_cbs : (conn -> sub -> unit) list;
  mutable sub_closed_cbs : (conn -> sub -> Smapp_tcp.Tcp_error.t option -> unit) list;
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

let handle t = function
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
        List.iter (fun f -> f conn) t.created_cbs
      end
  | Pm_msg.Estab { token } -> (
      match find t token with
      | Some conn ->
          conn.cv_established <- true;
          List.iter (fun f -> f conn) t.established_cbs
      | None -> ())
  | Pm_msg.Closed { token } -> (
      match find t token with
      | Some conn ->
          Smapp_sim.Otable.remove t.conn_tbl token;
          List.iter (fun f -> f conn) t.closed_cbs
      | None -> ())
  | Pm_msg.Sub_estab { token; sub_id; flow; backup } -> (
      match find t token with
      | Some conn ->
          let sub = { sv_id = sub_id; sv_flow = flow; sv_backup = backup } in
          conn.cv_subs <- conn.cv_subs @ [ sub ];
          List.iter (fun f -> f conn sub) t.sub_estab_cbs
      | None -> ())
  | Pm_msg.Sub_closed { token; sub_id; flow; error } -> (
      match find t token with
      | Some conn ->
          let sub =
            match find_sub conn sub_id with
            | Some s -> s
            | None -> { sv_id = sub_id; sv_flow = flow; sv_backup = false }
          in
          conn.cv_subs <- List.filter (fun s -> s.sv_id <> sub_id) conn.cv_subs;
          List.iter (fun f -> f conn sub error) t.sub_closed_cbs
      | None -> ())
  | Pm_msg.Timeout _ -> ()
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
  | Pm_msg.New_local_addr _ | Pm_msg.Del_local_addr _ -> ()

(* After an event gap or daemon restart the view may have drifted from the
   kernel in either direction; a [Dump] snapshot is authoritative. Each
   difference is surfaced through the same callbacks the lost events would
   have fired, so controllers need no resync-specific code. *)
let reconcile t snapshots =
  List.iter
    (fun snap ->
      let conn =
        match find t snap.Pm_msg.cs_token with
        | Some c -> c
        | None ->
            let c =
              {
                cv_token = snap.Pm_msg.cs_token;
                cv_initial_flow = snap.Pm_msg.cs_initial_flow;
                cv_established = false;
                cv_subs = [];
                cv_remote_addrs = [];
              }
            in
            Smapp_sim.Otable.add t.conn_tbl snap.Pm_msg.cs_token c;
            List.iter (fun f -> f c) t.created_cbs;
            c
      in
      if snap.Pm_msg.cs_established && not conn.cv_established then begin
        conn.cv_established <- true;
        List.iter (fun f -> f conn) t.established_cbs
      end;
      List.iter
        (fun ss ->
          if find_sub conn ss.Pm_msg.ss_sub_id = None then begin
            let sub =
              {
                sv_id = ss.Pm_msg.ss_sub_id;
                sv_flow = ss.Pm_msg.ss_flow;
                sv_backup = ss.Pm_msg.ss_backup;
              }
            in
            conn.cv_subs <- conn.cv_subs @ [ sub ];
            List.iter (fun f -> f conn sub) t.sub_estab_cbs
          end)
        snap.Pm_msg.cs_subs;
      let stale =
        List.filter
          (fun s ->
            not
              (List.exists
                 (fun ss -> ss.Pm_msg.ss_sub_id = s.sv_id)
                 snap.Pm_msg.cs_subs))
          conn.cv_subs
      in
      List.iter
        (fun sub ->
          conn.cv_subs <- List.filter (fun s -> s.sv_id <> sub.sv_id) conn.cv_subs;
          (* the close reason was in the lost event; Etimedout is the
             conservative guess that makes controllers re-establish *)
          List.iter
            (fun f -> f conn sub (Some Smapp_tcp.Tcp_error.Etimedout))
            t.sub_closed_cbs)
        stale)
    snapshots;
  let gone =
    List.filter
      (fun c ->
        not (List.exists (fun s -> s.Pm_msg.cs_token = c.cv_token) snapshots))
      (conns t)
  in
  List.iter
    (fun conn ->
      Smapp_sim.Otable.remove t.conn_tbl conn.cv_token;
      List.iter (fun f -> f conn) t.closed_cbs)
    gone

let base_mask =
  Pm_msg.Mask.created lor Pm_msg.Mask.estab lor Pm_msg.Mask.closed
  lor Pm_msg.Mask.sub_estab lor Pm_msg.Mask.sub_closed lor Pm_msg.Mask.add_addr
  lor Pm_msg.Mask.rem_addr

let create pm ?(extra_mask = 0) ?on_event () =
  let t =
    {
      pm;
      conn_tbl = Smapp_sim.Otable.create ();
      created_cbs = [];
      established_cbs = [];
      closed_cbs = [];
      sub_estab_cbs = [];
      sub_closed_cbs = [];
    }
  in
  Pm_lib.on_event pm ~mask:(base_mask lor extra_mask) (fun ev ->
      handle t ev;
      match on_event with Some f -> f t ev | None -> ());
  Pm_lib.on_resync pm (reconcile t);
  t
