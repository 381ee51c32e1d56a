open Smapp_netsim
open Smapp_tcp

type t = {
  id : int;
  tcb : Tcb.t;
  is_initial : bool;
  local_nonce : int64;
  mutable remote_nonce : int64;
  mutable nonce_known : bool;
}

let flow t = Tcb.flow t.tcb
let info t = Tcb.info t.tcb
let established t = Tcb.established t.tcb
let is_backup t = Tcb.is_backup t.tcb
let srtt_ns t = Tcb.srtt_ns t.tcb
let window_space t = Tcb.available_window t.tcb

let pp ppf t =
  Format.fprintf ppf "sub#%d %a%s%s" t.id Ip.pp_flow (flow t)
    (if t.is_initial then " initial" else "")
    (if is_backup t then " backup" else "")
