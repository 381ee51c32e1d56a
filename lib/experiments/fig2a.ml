open Smapp_sim
open Smapp_netsim
open Smapp_tcp
open Smapp_mptcp
module Setup = Smapp_core.Setup

type series = { label : string; points : (float * float) list }

type result = {
  master : series;
  backup : series;
  failover_at : float option;
  bytes_delivered : int;
  duration : float;
}

let run ?(seed = 42) ?(rto_threshold = 1.0) ?(duration = 4.0) () =
  let pair = Harness.make_pair ~seed () in
  let engine = pair.Harness.engine in
  (* control plane on the client *)
  let setup = Setup.attach pair.Harness.client_ep in
  let controller_config =
    {
      Smapp_controllers.Backup.rto_threshold = Time.span_of_float_s rto_threshold;
      backup_sources = [ Harness.client_addr pair 1 ];
      backup_destination = Some (Harness.server_endpoint pair 1 80);
      max_failovers = 8;
    }
  in
  let controller = Smapp_controllers.Backup.start setup.Setup.pm controller_config in
  (* server sink *)
  let received = ref 0 in
  Endpoint.listen pair.Harness.server_ep ~port:80 (fun conn ->
      Connection.set_receive conn (fun len -> received := !received + len));
  (* trace data segments leaving the client, per path *)
  let primary_points = ref [] and backup_points = ref [] in
  let primary_src = Harness.client_addr pair 0 in
  Host.add_tap pair.Harness.topo.Topology.client (fun pkt ->
      match Segment.of_packet pkt with
      | Some seg -> (
          match seg.Segment.payload with
          | Some { Segment.dsn; len } ->
              let t = Time.to_float_s (Engine.now engine) in
              let y = float_of_int (dsn + len) /. 1e5 in
              if Ip.equal seg.Segment.flow.Ip.src.Ip.addr primary_src then
                primary_points := (t, y) :: !primary_points
              else backup_points := (t, y) :: !backup_points
          | None -> ())
      | None -> ());
  (* failover time = first subflow created from the backup source *)
  let failover_at = ref None in
  (* client sends continuously *)
  let conn =
    Endpoint.connect pair.Harness.client_ep ~src:primary_src
      ~dst:(Harness.server_endpoint pair 0 80)
      ()
  in
  Connection.subscribe conn (function
    | Connection.Established ->
        (* enough data to outlast the horizon *)
        Connection.send conn 50_000_000
    | Connection.Subflow_established sf ->
        if
          (not sf.Subflow.is_initial)
          && Ip.equal (Subflow.flow sf).Ip.src.Ip.addr (Harness.client_addr pair 1)
          && !failover_at = None
        then failover_at := Some (Time.to_float_s (Engine.now engine))
    | _ -> ());
  (* impairment: 30% loss on the primary path after 1 s *)
  Netem.loss_at engine
    (Time.add Time.zero (Time.span_s 1))
    (Harness.path pair 0).Topology.cable 0.30;
  Harness.run_seconds engine duration;
  ignore controller;
  {
    master = { label = "Master"; points = List.rev !primary_points };
    backup = { label = "Back up"; points = List.rev !backup_points };
    failover_at = !failover_at;
    bytes_delivered = !received;
    duration;
  }
