module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg
open Smapp_sim
open Smapp_netsim

(* The paper's stream: a 64 KB block every second, checked halfway *)
let block_bytes = 64 * 1024
let period = Time.span_s 1
let check_after = Time.span_ms 500
let min_progress = 32 * 1024

type config = {
  rto_limit : Time.span;
  spare_source : Ip.t;
  spare_destination : Ip.endpoint option;
  max_spare_opens : int;
}

let default_config ~spare_source ?spare_destination () =
  {
    rto_limit = Time.span_s 1;
    spare_source;
    spare_destination;
    max_spare_opens = 4;
  }

type conn_state = {
  token : int;
  mutable blocks_started : int;
  mutable spare_opened : bool;
  mutable spare_opens : int;
  mutable timer : Engine.timer option;
}

type t = {
  view : Conn_view.t;
  config : config;
  states : (int, conn_state) Hashtbl.t;
  mutable opened : int;
  mutable closed : int;
  mutable checks : int;
}

let second_subflows_opened t = t.opened
let subflows_closed t = t.closed
let checks_performed t = t.checks

let pm t = Conn_view.pm t.view

let open_spare t (conn : Conn_view.conn) st =
  if (not st.spare_opened) && st.spare_opens < t.config.max_spare_opens then begin
    st.spare_opened <- true;
    st.spare_opens <- st.spare_opens + 1;
    t.opened <- t.opened + 1;
    let dst =
      Option.value t.config.spare_destination
        ~default:conn.Conn_view.cv_initial_flow.Ip.dst
    in
    Pm_lib.create_subflow (pm t) ~token:st.token ~src:t.config.spare_source ~dst ()
  end

(* Progress check: [check_after] into block [i], at least
   [i * block + min_progress] bytes of the stream must be acknowledged. *)
let check_progress t st =
  let block_index = st.blocks_started - 1 in
  if block_index >= 0 then begin
    t.checks <- t.checks + 1;
    Pm_lib.get_conn_info (pm t) ~token:st.token (function
      | Error _ -> ()
      | Ok info ->
          let expected = (block_index * block_bytes) + min_progress in
          if info.Pm_msg.ci_bytes_acked < expected then begin
            match Conn_view.find t.view st.token with
            | Some conn -> open_spare t conn st
            | None -> ()
          end)
  end

let watch_connection t (conn : Conn_view.conn) =
  let token = conn.Conn_view.cv_token in
  if not (Hashtbl.mem t.states token) then begin
    let st =
      { token; blocks_started = 0; spare_opened = false; spare_opens = 0; timer = None }
    in
    Hashtbl.replace t.states token st;
    (* block i starts at i * period (counting from establishment); check at
       start + check_after *)
    let engine = Pm_lib.engine (pm t) in
    st.blocks_started <- 1;
    st.timer <-
      Some
        (Engine.every engine ~start:check_after period (fun () ->
             if Hashtbl.mem t.states token then begin
               check_progress t st;
               st.blocks_started <- st.blocks_started + 1;
               `Continue
             end
             else `Stop))
  end

let on_timeout t (conn : Conn_view.conn) ~sub_id ~rto ~count:_ =
  if
    Time.compare_span rto t.config.rto_limit > 0
    && Conn_view.find_sub conn sub_id <> None
  then begin
    (* make sure the stream still has a path before cutting this one: with
       no alternative subflow, cut only if the spare budget still allows
       opening a replacement — never leave the stream pathless *)
    let token = conn.Conn_view.cv_token in
    let have_alternative =
      List.length conn.Conn_view.cv_subs > 1
      ||
      match Hashtbl.find_opt t.states token with
      | Some st ->
          open_spare t conn st;
          st.spare_opened
      | None -> false
    in
    if have_alternative then begin
      t.closed <- t.closed + 1;
      Pm_lib.remove_subflow (pm t) ~token ~sub_id ()
    end
  end

(* the spare itself died (e.g. its radio handed over): allow a fresh one,
   within the [max_spare_opens] budget *)
let on_sub_closed t (conn : Conn_view.conn) (sub : Conn_view.sub) error =
  if error <> None then
    match Hashtbl.find_opt t.states conn.Conn_view.cv_token with
    | Some st
      when st.spare_opened
           && Ip.equal sub.Conn_view.sv_flow.Ip.src.Ip.addr t.config.spare_source ->
        st.spare_opened <- false
    | Some _ | None -> ()

let on_closed t (conn : Conn_view.conn) =
  match Hashtbl.find_opt t.states conn.Conn_view.cv_token with
  | Some st ->
      (match st.timer with Some timer -> Engine.cancel timer | None -> ());
      Hashtbl.remove t.states conn.Conn_view.cv_token
  | None -> ()

let start pm_lib config =
  let view = Conn_view.create pm_lib ~extra_mask:Pm_msg.Mask.timeout () in
  let t =
    { view; config; states = Hashtbl.create 7; opened = 0; closed = 0; checks = 0 }
  in
  let h =
    {
      Conn_view.null_handlers with
      on_established = watch_connection t;
      on_sub_closed = on_sub_closed t;
      on_timeout = on_timeout t;
      on_closed = on_closed t;
    }
  in
  Conn_view.control view (fun _ -> h);
  t
