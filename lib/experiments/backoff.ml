open Smapp_sim
open Smapp_netsim
open Smapp_mptcp

type result = {
  subflow_died_at : float option;
  rto_expirations : int;
  max_rto_seen : float;
  bytes_before_failover : int;
  bytes_after_failover : int;
  predicted_kill_s : float;
}

(* Closed-form prediction of the kill time from the same capped-exponential
   schedule TCP's retransmission timer follows (Linux: TCP_RTO_MAX = 120 s,
   [max_backoffs] doublings), expressed as a {!Smapp_core.Retry.policy}. *)
let predicted_kill_s ~first_rto_s ~max_backoffs =
  Time.span_to_float_s
    (Smapp_core.Retry.total_delay
       {
         Smapp_core.Retry.base = Time.span_of_float_s first_rto_s;
         factor = 2.0;
         max_delay = Time.span_s 120;
         max_attempts = max_backoffs;
         jitter = 0.0;
       })

let run ?(loss = 0.30) ?(max_backoffs = 15) ?(horizon = 1500.0) () =
  (* raise the kill threshold to Linux's 15 doublings *)
  let config = { Smapp_tcp.Tcb.default_config with max_rto_backoffs = max_backoffs } in
  let pair = Harness.make_pair ~seed:42 ~tcb_config:config () in
  let engine = pair.Harness.engine in
  let received = ref 0 in
  Endpoint.listen pair.Harness.server_ep ~port:80 (fun conn ->
      Connection.set_receive conn (fun len -> received := !received + len));
  let conn =
    Endpoint.connect pair.Harness.client_ep
      ~src:(Harness.client_addr pair 0)
      ~dst:(Harness.server_endpoint pair 0 80)
      ()
  in
  let died_at = ref None in
  let rtos = ref 0 in
  let max_rto = ref 0.0 in
  let first_rto = ref None in
  let bytes_at_death = ref 0 in
  Connection.subscribe conn (function
    | Connection.Established ->
        (* pre-established backup subflow, RFC 6824 style *)
        ignore
          (Connection.add_subflow conn
             ~src:(Harness.client_addr pair 1)
             ~dst:(Harness.server_endpoint pair 1 80)
             ~backup:true ());
        Connection.send conn 200_000_000
    | Connection.Subflow_rto (sf, rto, _) ->
        if sf.Subflow.is_initial then begin
          incr rtos;
          let rto_s = Time.span_to_float_s rto in
          (* the event reports the already-doubled value: halve it back *)
          if !first_rto = None then first_rto := Some (rto_s /. 2.);
          max_rto := Float.max !max_rto rto_s
        end
    | Connection.Subflow_closed (sf, _) ->
        if sf.Subflow.is_initial && !died_at = None then begin
          died_at := Some (Time.to_float_s (Engine.now engine));
          bytes_at_death := !received
        end
    | _ -> ());
  Netem.loss_at engine
    (Time.add Time.zero (Time.span_s 1))
    (Harness.path pair 0).Topology.cable loss;
  Harness.run_seconds engine horizon;
  {
    subflow_died_at = !died_at;
    rto_expirations = !rtos;
    max_rto_seen = !max_rto;
    bytes_before_failover = !bytes_at_death;
    bytes_after_failover = !received - !bytes_at_death;
    predicted_kill_s =
      (match !first_rto with
      | Some r -> predicted_kill_s ~first_rto_s:r ~max_backoffs
      | None -> 0.0);
  }
