open Smapp_sim
open Smapp_netsim
open Smapp_tcp
open Smapp_mptcp

let run_seconds engine seconds =
  Engine.run ~until:(Time.add Time.zero (Time.span_of_float_s seconds)) engine

let seeds n = List.init n (fun i -> 1000 + (7 * i))

(* One job per element, results in submission order: [List.map] without a
   pool, [Smapp_par] domains (each job in an isolated obs capsule) with
   one. Every multi-seed experiment sweep funnels through here. *)
let sweep ?pool f jobs = Smapp_par.Sweep.map ?pool f jobs

type pair = {
  engine : Engine.t;
  topo : Topology.parallel;
  client_ep : Endpoint.t;
  server_ep : Endpoint.t;
}

let make_pair ?(seed = 42) ?rates_bps ?delays ?tcb_config () =
  let engine = Engine.create ~seed () in
  let topo = Topology.parallel_paths engine ?rates_bps ?delays ~n:2 () in
  let client_ep = Endpoint.of_host ?tcb_config topo.Topology.client in
  let server_ep = Endpoint.of_host ?tcb_config topo.Topology.server in
  { engine; topo; client_ep; server_ep }

let path pair i = List.nth pair.topo.Topology.paths i
let client_addr pair i = (path pair i).Topology.client_addr
let server_endpoint pair i port = Ip.endpoint (path pair i).Topology.server_addr port

module Syn_tap = struct
  (* per connection-attempt source endpoint we record the CAPA SYN time;
     join SYNs are matched to the most recent unmatched CAPA. *)
  type t = {
    engine : Engine.t;
    mutable capa_at : Time.t option;  (* latest MP_CAPABLE SYN *)
    mutable delays : float list;
    mutable matched : bool;
  }

  let is_syn (seg : Segment.t) = seg.Segment.syn && not seg.Segment.ack

  let install host =
    let t =
      { engine = Host.engine host; capa_at = None; delays = []; matched = true }
    in
    Host.add_tap host (fun pkt ->
        match Segment.of_packet pkt with
        | Some seg when is_syn seg ->
            if Options.find_capable seg.Segment.options <> None then begin
              t.capa_at <- Some (Engine.now t.engine);
              t.matched <- false
            end
            else if Options.find_join seg.Segment.options <> None && not t.matched then begin
              match t.capa_at with
              | Some capa ->
                  t.matched <- true;
                  t.delays <-
                    Time.span_to_float_s (Time.diff (Engine.now t.engine) capa)
                    :: t.delays
              | None -> ()
            end
        | Some _ | None -> ());
    t

  let join_delays t = List.rev t.delays
end
