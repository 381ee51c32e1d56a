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

type t = { view : Conn_view.t; config : config; mutable failovers : int }

let failovers t = t.failovers

(* One connection's handlers. Its shelf ([remaining]: the backup sources
   not yet consumed) and its failover count, capped at
   [config.max_failovers], live in their closures and go with them. *)
let handlers t (_ : Conn_view.conn) =
  let remaining = ref t.config.backup_sources and performed = ref 0 in
  let on_timeout (conn : Conn_view.conn) ~sub_id ~rto ~count:_ =
    if
      Time.compare_span rto t.config.rto_threshold > 0
      && !performed < t.config.max_failovers
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
          match List.filter (fun src -> not (in_use src)) !remaining with
          | [] -> () (* nowhere to go: let TCP keep trying *)
          | src :: _ ->
              remaining := List.filter (fun a -> not (Ip.equal a src)) !remaining;
              t.failovers <- t.failovers + 1;
              incr performed;
              note_failover ();
              let dst =
                Option.value t.config.backup_destination ~default:sub.Conn_view.sv_flow.Ip.dst
              in
              let pm = Conn_view.pm t.view and token = conn.Conn_view.cv_token in
              Pm_lib.create_subflow pm ~token ~src ~dst ();
              Pm_lib.remove_subflow pm ~token ~sub_id ())
  in
  (* a promoted backup came alive: put its source back on the shelf so a
     later handover can fail over again (while the subflow lives, the
     [in_use] filter keeps it off the candidate list) *)
  let on_sub_established _ (sub : Conn_view.sub) =
    let src = sub.Conn_view.sv_flow.Ip.src.Ip.addr in
    if
      List.exists (Ip.equal src) t.config.backup_sources
      && not (List.exists (Ip.equal src) !remaining)
    then remaining := !remaining @ [ src ]
  in
  { Conn_view.null_handlers with on_timeout; on_sub_established }

let start pm config =
  let view = Conn_view.create pm ~extra_mask:Pm_msg.Mask.timeout () in
  let t = { view; config; failovers = 0 } in
  Conn_view.control view (handlers t);
  t
