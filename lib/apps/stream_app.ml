open Smapp_sim
open Smapp_mptcp

let block_bytes = 64 * 1024
let period = Time.span_s 1

type sender = { mutable sent : int }

let blocks_sent s = s.sent

let sender conn ~blocks () =
  let s = { sent = 0 } in
  let engine = Connection.engine conn in
  let start () =
    Connection.send conn block_bytes;
    s.sent <- 1;
    if blocks > 1 then
      ignore
        (Engine.every engine period (fun () ->
             Connection.send conn block_bytes;
             s.sent <- s.sent + 1;
             if s.sent >= blocks then begin
               Connection.close conn;
               `Stop
             end
             else `Continue))
    else Connection.close conn
  in
  if Connection.established conn then start ()
  else
    Connection.subscribe conn (function
      | Connection.Established -> start ()
      | _ -> ());
  s

type receiver = {
  r_blocks : int;
  mutable r_t0 : Time.t option;
  mutable r_received : int;
  mutable r_delays : float list; (* newest first *)
}

let block_delays r = List.rev r.r_delays
let blocks_completed r = List.length r.r_delays

let receiver conn ~blocks () =
  let r = { r_blocks = blocks; r_t0 = None; r_received = 0; r_delays = [] } in
  let engine = Connection.engine conn in
  let anchor () = if r.r_t0 = None then r.r_t0 <- Some (Engine.now engine) in
  if Connection.established conn then anchor ()
  else
    Connection.subscribe conn (function
      | Connection.Established -> anchor ()
      | _ -> ());
  Connection.set_receive conn (fun len ->
      anchor ();
      let before = r.r_received in
      r.r_received <- r.r_received + len;
      let completed_before = before / block_bytes in
      let completed_now = min r.r_blocks (r.r_received / block_bytes) in
      let t0 = Option.get r.r_t0 in
      for k = completed_before to completed_now - 1 do
        (* block k was scheduled at t0 + k * period *)
        let scheduled = Time.add t0 (Time.span_scale k period) in
        let delay = Time.span_to_float_s (Time.diff (Engine.now engine) scheduled) in
        r.r_delays <- delay :: r.r_delays
      done);
  r
