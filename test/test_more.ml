(* Additional coverage: teardown paths, SACK recovery, silly-window
   avoidance, MP_FASTCLOSE, API edge cases. *)

open Smapp_sim
open Smapp_netsim
open Smapp_tcp
open Smapp_mptcp

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* --- plain-TCP fixtures -------------------------------------------------------- *)

type fixture = {
  engine : Engine.t;
  direct : Topology.direct;
  cstack : Stack.t;
  sstack : Stack.t;
  server_addr : Ip.t;
  client_addr : Ip.t;
}

let fixture ?(seed = 21) ?(rate = 10e6) ?(delay = Time.span_ms 10) () =
  let engine = Engine.create ~seed () in
  let direct = Topology.direct_link engine ~rate_bps:rate ~delay () in
  let cstack = Stack.attach direct.Topology.client in
  let sstack = Stack.attach direct.Topology.server in
  {
    engine;
    direct;
    cstack;
    sstack;
    server_addr = List.hd (Host.addresses direct.Topology.server);
    client_addr = List.hd (Host.addresses direct.Topology.client);
  }

let accept_sink ?(cbs = Tcb.null_callbacks) f = Plain_tcp.listen f.sstack ~port:80 cbs

let run f s = Engine.run_until f.engine (Time.add Time.zero (Time.span_ms s))

(* --- orderly teardown from both ends --------------------------------------------- *)

let test_close_client_first () =
  let f = fixture () in
  let server_states = ref [] in
  let server_cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_fin = (fun tcb -> server_states := "fin" :: !server_states; Tcb.close tcb);
      on_close = (fun _ err -> server_states := (if err = None then "clean" else "err") :: !server_states);
    }
  in
  accept_sink ~cbs:server_cbs f;
  let client_closed = ref None in
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.close tcb);
      on_close = (fun _ err -> client_closed := Some err);
    }
  in
  let _ = Plain_tcp.connect f.cstack ~src:f.client_addr ~dst:(Ip.endpoint f.server_addr 80) cbs in
  run f 5000;
  checkb "client closed cleanly" true (!client_closed = Some None);
  Alcotest.(check (list string)) "server saw fin then clean close" [ "clean"; "fin" ]
    !server_states

let test_abort_resets_peer () =
  let f = fixture () in
  let server_err = ref None in
  accept_sink
    ~cbs:{ Tcb.null_callbacks with Tcb.on_close = (fun _ e -> server_err := Some e) }
    f;
  let tcb_ref = ref None in
  let cbs =
    { Tcb.null_callbacks with Tcb.on_established = (fun tcb -> tcb_ref := Some tcb) }
  in
  let _ = Plain_tcp.connect f.cstack ~src:f.client_addr ~dst:(Ip.endpoint f.server_addr 80) cbs in
  run f 500;
  (match !tcb_ref with Some tcb -> Tcb.abort tcb | None -> Alcotest.fail "not established");
  run f 1000;
  match !server_err with
  | Some (Some Tcp_error.Econnreset) -> ()
  | _ -> Alcotest.fail "server should see ECONNRESET"

let test_fin_survives_loss () =
  (* FINs are retransmitted like data *)
  let f = fixture ~seed:5 () in
  Link.set_loss f.direct.Topology.cable.Topology.fwd 0.3;
  let server_fin = ref false in
  accept_sink ~cbs:{ Tcb.null_callbacks with Tcb.on_fin = (fun _ -> server_fin := true) } f;
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established =
        (fun tcb ->
          Tcb.enqueue tcb ~dsn:0 ~len:5000;
          Tcb.close tcb);
    }
  in
  let _ = Plain_tcp.connect f.cstack ~src:f.client_addr ~dst:(Ip.endpoint f.server_addr 80) cbs in
  run f 30000;
  checkb "fin delivered despite loss" true !server_fin

(* --- SACK behaviour --------------------------------------------------------------- *)

let test_sack_blocks_on_acks () =
  (* receiver advertises its out-of-order ranges *)
  let f = fixture () in
  let sacks_seen = ref 0 in
  Host.add_tap f.direct.Topology.server (fun pkt ->
      match Segment.of_packet pkt with
      | Some seg -> if seg.Segment.sack_count > 0 then incr sacks_seen
      | None -> ());
  Link.set_loss f.direct.Topology.cable.Topology.fwd 0.05;
  let received = ref 0 in
  accept_sink
    ~cbs:
      { Tcb.null_callbacks with Tcb.on_data = (fun _ ~dsn:_ ~len -> received := !received + len) }
    f;
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:300_000);
    }
  in
  let _ = Plain_tcp.connect f.cstack ~src:f.client_addr ~dst:(Ip.endpoint f.server_addr 80) cbs in
  run f 60_000;
  checki "all delivered" 300_000 !received;
  checkb "sack blocks were sent" true (!sacks_seen > 0)

let test_single_loss_recovers_fast () =
  (* one lost segment mid-stream: recovery well under an RTO (SACK/dupack) *)
  let f = fixture ~rate:100e6 ~delay:(Time.span_ms 5) () in
  let received = ref 0 in
  let finished = ref nan in
  accept_sink
    ~cbs:
      {
        Tcb.null_callbacks with
        Tcb.on_data =
          (fun _ ~dsn:_ ~len ->
            received := !received + len;
            if !received >= 200_000 then finished := Time.to_float_s (Engine.now f.engine));
      }
    f;
  (* drop exactly one packet at ~20 ms by flipping loss to 1.0 for an instant *)
  let fwd = f.direct.Topology.cable.Topology.fwd in
  ignore
    (Engine.at f.engine (Time.add Time.zero (Time.span_ms 20)) (fun () ->
         Link.set_loss fwd 1.0;
         ignore
           (Engine.after f.engine (Time.span_us 200) (fun () -> Link.set_loss fwd 0.0))));
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:200_000);
    }
  in
  let _ = Plain_tcp.connect f.cstack ~src:f.client_addr ~dst:(Ip.endpoint f.server_addr 80) cbs in
  run f 10_000;
  checki "complete" 200_000 !received;
  (* 200 KB at 100 Mbps is ~16 ms + RTT; a 200 ms RTO stall would blow this *)
  checkb "no rto stall" true (!finished < 0.15)

(* --- silly window avoidance --------------------------------------------------------- *)

let test_no_tiny_segments () =
  let f = fixture ~rate:8e6 ~delay:(Time.span_ms 20) () in
  let tiny = ref 0 and total = ref 0 in
  Host.add_tap f.direct.Topology.client (fun pkt ->
      match Segment.of_packet pkt with
      | Some seg ->
          let len = Segment.payload_len seg in
          if len > 0 then begin
            incr total;
            if len < 1400 then incr tiny
          end
      | None -> ());
  accept_sink f;
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:1_000_000);
    }
  in
  let _ = Plain_tcp.connect f.cstack ~src:f.client_addr ~dst:(Ip.endpoint f.server_addr 80) cbs in
  run f 20_000;
  checkb "sent plenty" true (!total > 500);
  (* only the stream tail may be sub-MSS *)
  checkb "at most one tiny segment" true (!tiny <= 1)

(* --- Cc extras ---------------------------------------------------------------------- *)

let test_cc_pacing_factors () =
  let cc = Cc.create ~mss:1000 () in
  (* slow start: factor 2 *)
  let r1 = Cc.pacing_rate cc ~srtt:0.1 in
  Alcotest.(check (float 1.0)) "slow-start pacing" (2.0 *. 10_000.0 /. 0.1) r1;
  Cc.on_retransmit_loss cc;
  let r2 = Cc.pacing_rate cc ~srtt:0.1 in
  Alcotest.(check (float 1.0)) "CA pacing" (1.2 *. 5000.0 /. 0.1) r2;
  Alcotest.(check (float 0.0)) "no srtt, no rate" 0.0 (Cc.pacing_rate cc ~srtt:0.0)

let test_cc_idle_restart () =
  let cc = Cc.create ~mss:1000 () in
  Cc.on_ack cc ~acked:40_000;
  checki "grown" 50_000 (Cc.cwnd cc);
  Cc.on_idle_restart cc ~idle_rtos:2;
  checki "halved twice" 12_500 (Cc.cwnd cc);
  Cc.on_idle_restart cc ~idle_rtos:10;
  checki "floored at initial window" 10_000 (Cc.cwnd cc)

(* --- MPTCP extras -------------------------------------------------------------------- *)

let mptcp_pair ?(seed = 31) () =
  let engine = Engine.create ~seed () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn -> accepted := Some conn);
  let p0 = List.hd topo.Topology.paths in
  let conn =
    Endpoint.connect client_ep ~src:p0.Topology.client_addr
      ~dst:(Ip.endpoint p0.Topology.server_addr 80)
      ()
  in
  (engine, topo, conn, accepted)

let test_send_after_close_raises () =
  let engine, _, conn, _ = mptcp_pair () in
  Engine.run_until engine (Time.add Time.zero (Time.span_ms 500));
  Connection.close conn;
  Alcotest.check_raises "send after close"
    (Invalid_argument "Connection.send: connection closing") (fun () ->
      Connection.send conn 100)

let test_send_nonpositive_raises () =
  let engine, _, conn, _ = mptcp_pair () in
  ignore engine;
  Alcotest.check_raises "send 0" (Invalid_argument "Connection.send: n must be positive")
    (fun () -> Connection.send conn 0)

let test_meta_abort () =
  let engine, _, conn, accepted = mptcp_pair () in
  Engine.run_until engine (Time.add Time.zero (Time.span_ms 500));
  Connection.send conn 1_000_000;
  ignore (Engine.after engine (Time.span_ms 100) (fun () -> Connection.abort conn));
  Engine.run_until engine (Time.add Time.zero (Time.span_s 5));
  checkb "client closed" true (Connection.closed conn);
  match !accepted with
  | Some sconn -> checki "server lost its subflows" 0 (List.length (Connection.subflows sconn))
  | None -> Alcotest.fail "no server conn"

let test_bytes_accounting () =
  let engine, _, conn, accepted = mptcp_pair () in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 123_456
    | _ -> ());
  Engine.run_until engine (Time.add Time.zero (Time.span_s 30));
  checki "bytes_sent" 123_456 (Connection.bytes_sent conn);
  checki "bytes_acked" 123_456 (Connection.bytes_acked conn);
  checki "buffer drained" 0 (Connection.send_buffer_bytes conn);
  match !accepted with
  | Some sconn -> checki "received" 123_456 (Connection.bytes_received sconn)
  | None -> Alcotest.fail "no server conn"

let test_duplicate_add_subflow_tuple () =
  let engine, topo, conn, _ = mptcp_pair () in
  Engine.run_until engine (Time.add Time.zero (Time.span_ms 500));
  let p1 = List.nth topo.Topology.paths 1 in
  let dst = Ip.endpoint p1.Topology.server_addr 80 in
  (match Connection.add_subflow conn ~src:p1.Topology.client_addr ~src_port:7777 ~dst () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first add: %s" e);
  Engine.run_until engine (Time.add Time.zero (Time.span_s 1));
  match Connection.add_subflow conn ~src:p1.Topology.client_addr ~src_port:7777 ~dst () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate four-tuple accepted"

(* --- stats / misc ---------------------------------------------------------------------- *)

let test_rng_exponential_mean () =
  let rng = Rng.of_int 3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean about 5" true (mean > 4.8 && mean < 5.2)

let test_topology_param_padding () =
  let engine = Engine.create () in
  (* 3 paths from a 2-element rate list: last element repeats *)
  let topo =
    Topology.parallel_paths engine ~rates_bps:[ 1e6; 2e6 ] ~n:3 ()
  in
  let rates =
    List.map (fun (p : Topology.path) -> Link.rate_bps p.Topology.cable.Topology.fwd)
      topo.Topology.paths
  in
  Alcotest.(check (list (float 0.0))) "padded" [ 1e6; 2e6; 2e6 ] rates

let test_http_failed_request () =
  (* no HTTP server behind the endpoint: the request must count as failed *)
  let engine = Engine.create ~seed:4 () in
  let topo = Topology.parallel_paths engine ~n:1 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  (* MPTCP listener that accepts but never answers, then aborts *)
  Endpoint.listen server_ep ~port:80 (fun conn ->
      Connection.subscribe conn (function
        | Connection.Data_received _ -> Connection.abort conn
        | _ -> ()));
  let p0 = List.hd topo.Topology.paths in
  let finished = ref None in
  let _ =
    Smapp_apps.Http.client client_ep ~src:p0.Topology.client_addr
      ~dst:(Ip.endpoint p0.Topology.server_addr 80)
      ~response_bytes:10_000 ~requests:2
      ~on_done:(fun s -> finished := Some s)
      ()
  in
  Engine.run_until engine (Time.add Time.zero (Time.span_s 60));
  match !finished with
  | Some s ->
      checki "no successes" 0 s.Smapp_apps.Http.completed;
      checki "two failures" 2 s.Smapp_apps.Http.failed
  | None -> Alcotest.fail "client did not finish"

let () =
  Alcotest.run "more"
    [
      ( "tcp teardown",
        [
          Alcotest.test_case "client closes first" `Quick test_close_client_first;
          Alcotest.test_case "abort resets peer" `Quick test_abort_resets_peer;
          Alcotest.test_case "fin survives loss" `Quick test_fin_survives_loss;
        ] );
      ( "sack",
        [
          Alcotest.test_case "blocks on acks" `Quick test_sack_blocks_on_acks;
          Alcotest.test_case "single loss fast recovery" `Quick test_single_loss_recovers_fast;
        ] );
      ("sws", [ Alcotest.test_case "no tiny segments" `Quick test_no_tiny_segments ]);
      ( "cc",
        [
          Alcotest.test_case "pacing factors" `Quick test_cc_pacing_factors;
          Alcotest.test_case "idle restart" `Quick test_cc_idle_restart;
        ] );
      ( "mptcp api",
        [
          Alcotest.test_case "send after close" `Quick test_send_after_close_raises;
          Alcotest.test_case "send zero" `Quick test_send_nonpositive_raises;
          Alcotest.test_case "abort" `Quick test_meta_abort;
          Alcotest.test_case "bytes accounting" `Quick test_bytes_accounting;
          Alcotest.test_case "duplicate four-tuple" `Quick test_duplicate_add_subflow_tuple;
        ] );
      ( "misc",
        [
          Alcotest.test_case "rng exponential" `Quick test_rng_exponential_mean;
          Alcotest.test_case "topology padding" `Quick test_topology_param_padding;
          Alcotest.test_case "http failure path" `Quick test_http_failed_request;
        ] );
    ]
