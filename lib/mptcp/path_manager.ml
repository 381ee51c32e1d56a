open Smapp_sim
open Smapp_netsim

(* Kernel-side work between noticing an event and emitting the MP_JOIN SYN:
   allocating the request socket, route lookup, etc. Calibrated so that the
   userspace manager's extra netlink round-trip (~23us in the paper) stands
   out against it. *)
let creation_delay = Time.span_us 8

(* jittered like any in-kernel work: softirq scheduling is not constant *)
let jittered engine =
  let rng = Engine.split_rng engine in
  fun () ->
    let f = 0.7 +. Rng.float rng 0.6 in
    Time.span_of_float_s (Time.span_to_float_s creation_delay *. f)

type t = { attach : Connection.t -> unit }

(* One immediate fullmesh pass: cover any (local x remote) pair that has no
   subflow yet, synchronously (no creation_delay — the caller is already
   kernel-side work). Shared by the fullmesh blueprint for connections that
   are established at attach time and by the Netlink PM's watchdog fallback. *)
let mesh_sweep conn =
  if Connection.role conn = Connection.Client && Connection.established conn then begin
    let remotes =
      (Connection.initial_flow conn).Ip.dst
      :: List.map snd (Connection.remote_addresses conn)
    in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            let covered =
              List.exists
                (fun sf ->
                  let f = Subflow.flow sf in
                  Ip.equal f.Ip.src.Ip.addr src && Ip.equal_endpoint f.Ip.dst dst)
                (Connection.subflows conn)
            in
            if not covered then ignore (Connection.add_subflow conn ~src ~dst ()))
          remotes)
      (Host.addresses (Connection.host conn))
  end

let fullmesh () =
  let attach conn =
    if Connection.role conn = Connection.Client then begin
      let engine = Connection.engine conn in
      let delay = jittered engine in
      (* the set of (src, dst) pairs we already created or are creating *)
      let created = Hashtbl.create 7 in
      let key src dst = (Ip.to_int src, Ip.to_int dst.Ip.addr, dst.Ip.port) in
      let mark src dst = Hashtbl.replace created (key src dst) () in
      let have src dst = Hashtbl.mem created (key src dst) in
      let host = Connection.host conn in
      let spawn src dst =
        if not (have src dst) then begin
          mark src dst;
          Engine.schedule engine (Time.add (Engine.now engine) (delay ())) (fun () ->
              ignore (Connection.add_subflow conn ~src ~dst ()))
        end
      in
      let remote_endpoints () =
        let initial = (Connection.initial_flow conn).Ip.dst in
        initial :: List.map snd (Connection.remote_addresses conn)
      in
      let mesh () =
        List.iter
          (fun src ->
            List.iter
              (fun dst -> spawn src dst)
              (remote_endpoints ()))
          (Host.addresses host)
      in
      (* the initial subflow's pair is already in use *)
      let init_flow = Connection.initial_flow conn in
      mark init_flow.Ip.src.Ip.addr init_flow.Ip.dst;
      Connection.subscribe conn (function
        | Connection.Established -> mesh ()
        | Connection.Remote_add_addr (_, _) -> if Connection.established conn then mesh ()
        | Connection.Remote_rem_addr _ | Connection.Subflow_established _
        | Connection.Subflow_closed (_, _)
        | Connection.Subflow_rto (_, _, _)
        | Connection.Data_received _ | Connection.Closed ->
            ());
      Host.on_addr_change host (fun _nic dir ->
          if dir = `Up && Connection.established conn && not (Connection.closed conn)
          then mesh ());
      (* attached after establishment (e.g. auto_install on a live
         endpoint): sweep now instead of waiting for the next event *)
      if Connection.established conn then mesh_sweep conn
    end
  in
  { attach }

let ndiffports ~n =
  let attach conn =
    if Connection.role conn = Connection.Client then
      Connection.subscribe conn (function
        | Connection.Established ->
            let engine = Connection.engine conn in
            let src = (Connection.initial_flow conn).Ip.src.Ip.addr in
            Engine.schedule engine (Time.add (Engine.now engine) (jittered engine ())) (fun () ->
                for _ = 2 to n do
                  ignore (Connection.add_subflow conn ~src ())
                done)
        | _ -> ())
  in
  { attach }

let auto_install t endpoint =
  List.iter t.attach (Endpoint.connections endpoint);
  Endpoint.subscribe_new_connections endpoint t.attach
