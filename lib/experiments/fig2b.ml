open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Stream = Smapp_controllers.Stream

type variant = Default_fullmesh | Smart_stream

let variant_name = function
  | Default_fullmesh -> "fullmesh"
  | Smart_stream -> "smart-stream"

type result = {
  delays : float list;
  blocks_completed : int;
}

let run_once ~seed ~blocks ~loss ~variant =
  let pair =
    Harness.make_pair ~seed ~rates_bps:[ 5_000_000.0 ] ~delays:[ Time.span_ms 10 ] ()
  in
  let engine = pair.Harness.engine in
  (* constant loss on the initial path, both directions *)
  Topology.set_duplex_loss (Harness.path pair 0).Topology.cable loss;
  (* receiver *)
  let receiver = ref None in
  Endpoint.listen pair.Harness.server_ep ~port:80 (fun conn ->
      receiver := Some (Smapp_apps.Stream_app.receiver conn ~blocks ()));
  (* control plane *)
  (match variant with
  | Default_fullmesh -> ()
  | Smart_stream ->
      let setup = Setup.attach pair.Harness.client_ep in
      let config =
        Stream.default_config ~spare_source:(Harness.client_addr pair 1)
          ~spare_destination:(Harness.server_endpoint pair 1 80) ()
      in
      ignore (Stream.start setup.Setup.pm config));
  let conn =
    Endpoint.connect pair.Harness.client_ep
      ~src:(Harness.client_addr pair 0)
      ~dst:(Harness.server_endpoint pair 0 80)
      ()
  in
  let established_at = ref Time.zero in
  Connection.subscribe conn (function
    | Connection.Established -> established_at := Engine.now engine
    | _ -> ());
  (* the default full-mesh path manager opens the second (path-aligned)
     subflow right away; on this two-disjoint-path topology that is the
     whole mesh *)
  (match variant with
  | Default_fullmesh ->
      Connection.subscribe conn (function
        | Connection.Established ->
            ignore
              (Connection.add_subflow conn
                 ~src:(Harness.client_addr pair 1)
                 ~dst:(Harness.server_endpoint pair 1 80)
                 ())
        | _ -> ())
  | Smart_stream -> ());
  ignore (Smapp_apps.Stream_app.sender conn ~blocks ());
  (* blocks + slack for stragglers, from establishment: block k leaves at
     establishment + k s, and SYN losses can delay that by tens of seconds *)
  let horizon = Time.span_of_float_s (float_of_int blocks +. 30.0) in
  Engine.run_until engine (Time.add Time.zero horizon);
  Engine.run_until engine (Time.add !established_at horizon);
  match !receiver with
  | Some r -> Smapp_apps.Stream_app.block_delays r
  | None -> []

let run ?pool ?(seeds = Harness.seeds 5) ?(blocks = 30) ~loss ~variant () =
  let delays =
    List.concat
      (Smapp_par.Sweep.map ?pool
         (fun seed -> run_once ~seed ~blocks ~loss ~variant)
         seeds)
  in
  { delays; blocks_completed = List.length delays }
