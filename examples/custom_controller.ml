(* Writing your own subflow controller against the PM library (paper §3).

   The paper's whole point: applications know things the kernel cannot.
   This controller implements a toy policy — "never run more than 90 seconds
   on the same subflow; rotate to the other interface" (say, to spread radio
   duty cycle between two links). It uses nothing but the userspace PM
   library: netlink events in, netlink commands out.

     dune exec examples/custom_controller.exe
*)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Pm_msg = Smapp_core.Pm_msg
module Pm_lib = Smapp_core.Pm_lib

(* --- the controller: ~60 lines, pure userspace ----------------------------- *)

type rotator = {
  pm : Pm_lib.t;
  interfaces : Ip.t list;
  period : Time.span;
  mutable rotations : int;
}

let start_rotator pm ~interfaces ~period =
  let t = { pm; interfaces; period; rotations = 0 } in
  (* per connection: remember the active subflow and where it runs *)
  let active : (int, int * Ip.t * Ip.endpoint) Hashtbl.t = Hashtbl.create 7 in
  Pm_lib.on_event pm
    ~mask:(Pm_msg.Mask.sub_estab lor Pm_msg.Mask.closed)
    (function
      | Pm_msg.Sub_estab { token; sub_id; flow; _ } ->
          Hashtbl.replace active token (sub_id, flow.Ip.src.Ip.addr, flow.Ip.dst)
      | Pm_msg.Closed { token } -> Hashtbl.remove active token
      | _ -> ());
  let rotate () =
    Hashtbl.iter
      (fun token (sub_id, current_src, dst) ->
        (* pick the next interface after the current one *)
        let next =
          match List.find_opt (fun a -> not (Ip.equal a current_src)) t.interfaces with
          | Some a -> a
          | None -> current_src
        in
        if not (Ip.equal next current_src) then begin
          t.rotations <- t.rotations + 1;
          Format.printf "%.1fs  rotating token=%08x from %a to %a@."
            (Time.to_float_s (Engine.now (Pm_lib.engine pm)))
            token Ip.pp current_src Ip.pp next;
          (* make-before-break: open the new subflow, then retire the old *)
          Pm_lib.create_subflow pm ~token ~src:next ~dst
            ~on_result:(function
              | Ok () -> Pm_lib.remove_subflow pm ~token ~sub_id ()
              | Error e -> Printf.printf "rotation failed: %s\n" e)
            ()
        end)
      active
  in
  ignore
    (Engine.every (Pm_lib.engine pm) t.period (fun () ->
         rotate ();
         `Continue));
  t

(* --- scenario ---------------------------------------------------------------- *)

let () =
  let engine = Engine.create ~seed:9 () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let p0 = List.nth topo.Topology.paths 0 in
  let p1 = List.nth topo.Topology.paths 1 in
  let client = Endpoint.of_host topo.Topology.client in
  let server = Endpoint.of_host topo.Topology.server in
  let setup = Setup.attach client in
  let rotator =
    start_rotator setup.Setup.pm
      ~interfaces:[ p0.Topology.client_addr; p1.Topology.client_addr ]
      ~period:(Time.span_s 90)
  in
  let received = ref 0 in
  Endpoint.listen server ~port:80 (fun conn ->
      Connection.set_receive conn (fun len -> received := !received + len));
  let conn =
    Endpoint.connect client ~src:p0.Topology.client_addr
      ~dst:(Ip.endpoint p0.Topology.server_addr 80)
      ()
  in
  (* a long-lived trickle: 20 KB every second for 5 minutes *)
  Connection.subscribe conn (function
    | Connection.Established ->
        ignore
          (Engine.every engine (Time.span_s 1) (fun () ->
               if Connection.closed conn then `Stop
               else begin
                 Connection.send conn 20_000;
                 `Continue
               end))
    | _ -> ());
  Engine.run_until engine (Time.add Time.zero (Time.span_s 300));
  Printf.printf "\nrotations: %d (expected 3 in 300 s at one per 90 s)\n"
    rotator.rotations;
  Printf.printf "delivered: %d bytes; per-path byte counts:\n" !received;
  List.iteri
    (fun i (p : Topology.path) ->
      Printf.printf "  path %d: %d bytes\n" i
        (Link.stats p.Topology.cable.Topology.fwd).Link.bytes_delivered)
    topo.Topology.paths;
  Printf.printf "the duty cycle alternates between the two interfaces.\n"
