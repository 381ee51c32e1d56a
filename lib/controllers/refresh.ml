module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_sim
open Smapp_netsim

type config = { subflows : int }

let default_config ?(subflows = 5) () = { subflows }
let period = Time.span_of_float_s 2.5

type t = {
  view : Conn_view.t;
  config : config;
  mutable refreshes : int;
  mutable polls : int;
  timers : (int, Engine.timer) Hashtbl.t;
}

let refreshes t = t.refreshes
let polls t = t.polls

let pm t = Conn_view.pm t.view

(* Collect pacing rates of all subflows, then cull the slowest. *)
let poll_and_refresh t token =
  match Conn_view.find t.view token with
  | None -> ()
  | Some conn ->
      let subs = conn.Conn_view.cv_subs in
      if List.length subs >= t.config.subflows then begin
        t.polls <- t.polls + 1;
        let expected = List.length subs in
        let results = ref [] in
        let arrived () =
          if List.length !results = expected then begin
            (* all replies in: drop the subflow with the lowest pacing rate *)
            match
              List.sort
                (fun (_, a) (_, b) -> Float.compare a b)
                !results
            with
            | (slowest_id, _) :: _ :: _ ->
                t.refreshes <- t.refreshes + 1;
                let src = conn.Conn_view.cv_initial_flow.Ip.src.Ip.addr in
                let dst = conn.Conn_view.cv_initial_flow.Ip.dst in
                Pm_lib.remove_subflow (pm t) ~token ~sub_id:slowest_id ();
                Pm_lib.create_subflow (pm t) ~token ~src ~dst ()
            | _ -> ()
          end
        in
        List.iter
          (fun sub ->
            let sub_id = sub.Conn_view.sv_id in
            Pm_lib.get_sub_info (pm t) ~token ~sub_id (fun result ->
                (match result with
                | Ok info -> results := (sub_id, info.Smapp_tcp.Tcp_info.pacing_rate) :: !results
                | Error _ ->
                    (* subflow vanished between enumeration and query *)
                    results := (sub_id, infinity) :: !results);
                arrived ()))
          subs
      end

let start pm_lib config =
  let view = Conn_view.create pm_lib () in
  let t =
    { view; config; refreshes = 0; polls = 0; timers = Hashtbl.create 7 }
  in
  let on_established (conn : Conn_view.conn) =
    let token = conn.Conn_view.cv_token in
    let flow = conn.Conn_view.cv_initial_flow in
    (* open the extra subflows with random (ephemeral) source ports *)
    for _ = 2 to t.config.subflows do
      Pm_lib.create_subflow pm_lib ~token ~src:flow.Ip.src.Ip.addr ~dst:flow.Ip.dst ()
    done;
    let timer =
      Engine.every (Pm_lib.engine pm_lib) period (fun () ->
          if Conn_view.find view token <> None then begin
            poll_and_refresh t token;
            `Continue
          end
          else `Stop)
    in
    Hashtbl.replace t.timers token timer
  in
  let on_closed (conn : Conn_view.conn) =
    match Hashtbl.find_opt t.timers conn.Conn_view.cv_token with
    | Some timer ->
        Engine.cancel timer;
        Hashtbl.remove t.timers conn.Conn_view.cv_token
    | None -> ()
  in
  let h = { Conn_view.null_handlers with on_established; on_closed } in
  Conn_view.control view (fun _ -> h);
  t
