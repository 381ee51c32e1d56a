module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_sim
open Smapp_netsim

type config = {
  rto_threshold : Time.span;
  backup_sources : Ip.t list;
  backup_destination : Ip.endpoint option;
  max_failovers : int;
}

let default_config ~backup_sources () =
  {
    rto_threshold = Time.span_s 1;
    backup_sources;
    backup_destination = None;
    max_failovers = 8;
  }

let m_failovers =
  Smapp_obs.Metrics.counter ~help:"break-before-make failovers triggered by RTO growth"
    "ctrl_failovers_total"

let note_failover () =
  Smapp_obs.Metrics.incr m_failovers;
  Smapp_obs.Trace.instant ~cat:"controller" "failover"

type t = {
  view : Conn_view.t;
  config : config;
  mutable failovers : int;
  (* per token: backup sources not yet consumed *)
  remaining : (int, Ip.t list) Hashtbl.t;
  (* per token: failovers performed, capped at [config.max_failovers] *)
  performed : (int, int) Hashtbl.t;
}

let failovers t = t.failovers

let remaining t token =
  Option.value (Hashtbl.find_opt t.remaining token) ~default:t.config.backup_sources

(* === the policy's handlers: [start] registers them on its own view, and
   [per_conn] hands them to a factory as every connection's instance === *)

let on_timeout t (conn : Conn_view.conn) ~sub_id ~rto ~count:_ =
  let token = conn.Conn_view.cv_token in
  let performed = Option.value (Hashtbl.find_opt t.performed token) ~default:0 in
  if
    Time.compare_span rto t.config.rto_threshold > 0
    && performed < t.config.max_failovers
  then
    match Conn_view.find_sub conn sub_id with
    | None -> ()
    | Some sub -> (
        (* skip sources already carrying a live subflow *)
        let in_use src =
          List.exists
            (fun s -> Ip.equal s.Conn_view.sv_flow.Ip.src.Ip.addr src)
            conn.Conn_view.cv_subs
        in
        let avail = remaining t token in
        match List.filter (fun src -> not (in_use src)) avail with
        | [] -> () (* nowhere to go: let TCP keep trying *)
        | src :: _ ->
            Hashtbl.replace t.remaining token (List.filter (fun a -> not (Ip.equal a src)) avail);
            t.failovers <- t.failovers + 1;
            Hashtbl.replace t.performed token (performed + 1);
            note_failover ();
            let dst =
              Option.value t.config.backup_destination ~default:sub.Conn_view.sv_flow.Ip.dst
            in
            let pm = Conn_view.pm t.view in
            Pm_lib.create_subflow pm ~token ~src ~dst ();
            Pm_lib.remove_subflow pm ~token ~sub_id ())

let on_sub_established t (conn : Conn_view.conn) (sub : Conn_view.sub) =
  (* a promoted backup came alive: put its source back on the shelf so a
     later handover can fail over again (while the subflow lives, the
     [in_use] filter keeps it off the candidate list) *)
  let src = sub.Conn_view.sv_flow.Ip.src.Ip.addr in
  if List.exists (Ip.equal src) t.config.backup_sources then begin
    let token = conn.Conn_view.cv_token in
    let avail = remaining t token in
    if not (List.exists (Ip.equal src) avail) then
      Hashtbl.replace t.remaining token (avail @ [ src ])
  end

let on_closed t (conn : Conn_view.conn) =
  Hashtbl.remove t.remaining conn.Conn_view.cv_token;
  Hashtbl.remove t.performed conn.Conn_view.cv_token

let create view config =
  { view; config; failovers = 0; remaining = Hashtbl.create 7; performed = Hashtbl.create 7 }

let start pm config =
  let view = Conn_view.create pm ~extra_mask:Pm_msg.Mask.timeout () in
  let t = create view config in
  Conn_view.on_timeout view (on_timeout t);
  Conn_view.on_sub_established view (on_sub_established t);
  Conn_view.on_conn_closed view (on_closed t);
  t

(* === per-connection instantiation ============================================ *)

type backup_state = {
  bs_config : config;
  mutable bs_bound : (Factory.t * t * Factory.events) option;
}

let backup_state config = { bs_config = config; bs_bound = None }

let backup_failovers s =
  match s.bs_bound with Some (_, t, _) -> t.failovers | None -> 0

(* Every instance is the same handlers of one controller, built on the
   factory's view when its first connection appears. *)
let per_conn state factory (_ : Conn_view.conn) =
  match state.bs_bound with
  | Some (f, _, events) when f == factory -> events
  | Some _ -> invalid_arg "Backup.per_conn: backup_state already bound to another factory"
  | None ->
      let t = create (Factory.view factory) state.bs_config in
      let events =
        {
          Factory.null_events with
          Factory.on_timeout = on_timeout t;
          on_sub_established = on_sub_established t;
          on_closed = on_closed t;
        }
      in
      state.bs_bound <- Some (factory, t, events);
      events
