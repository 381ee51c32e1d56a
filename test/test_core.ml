(* Integration tests for the control plane: the in-kernel Netlink path
   manager and the userspace PM library talking over the channel. *)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Pm_msg = Smapp_core.Pm_msg
module Pm_lib = Smapp_core.Pm_lib
module Kernel_pm = Smapp_core.Kernel_pm

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* two-path topology, endpoints on both sides, control plane on the client *)
let make () =
  let engine = Engine.create ~seed:77 () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn -> accepted := Some conn);
  let setup = Setup.attach client_ep in
  (engine, topo, client_ep, server_ep, accepted, setup)

let connect (topo : Topology.parallel) client_ep =
  let p0 = List.hd topo.Topology.paths in
  Endpoint.connect client_ep ~src:p0.Topology.client_addr
    ~dst:(Ip.endpoint p0.Topology.server_addr 80)
    ()

let run engine s = Engine.run ~until:(Time.add Time.zero (Time.span_ms s)) engine

let test_events_flow_to_userspace () =
  let engine, topo, client_ep, _, _, setup = make () in
  let events = ref [] in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.all (fun ev -> events := ev :: !events);
  let _conn = connect topo client_ep in
  run engine 500;
  let kinds = List.rev_map Pm_msg.mask_of_event !events in
  checkb "created seen" true (List.mem Pm_msg.Mask.created kinds);
  checkb "estab seen" true (List.mem Pm_msg.Mask.estab kinds);
  checkb "sub_estab seen" true (List.mem Pm_msg.Mask.sub_estab kinds)

let test_subscription_filters () =
  let engine, topo, client_ep, _, _, setup = make () in
  let events = ref [] in
  (* only interested in estab *)
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.estab (fun ev -> events := ev :: !events);
  let _conn = connect topo client_ep in
  run engine 500;
  checkb "got an event" true (!events <> []);
  checkb "only estab delivered" true
    (List.for_all (fun ev -> Pm_msg.mask_of_event ev = Pm_msg.Mask.estab) !events)

let test_create_subflow_command () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  let token = ref None in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.estab (function
    | Pm_msg.Estab { token = t } ->
        token := Some t;
        Pm_lib.create_subflow setup.Setup.pm ~token:t ~src:p1.Topology.client_addr
          ~dst:(Ip.endpoint p1.Topology.server_addr 80)
          ()
    | _ -> ());
  run engine 1000;
  checkb "token learned" true (!token <> None);
  checki "client grew a second subflow" 2 (List.length (Connection.subflows conn));
  match !accepted with
  | Some sconn -> checki "server too" 2 (List.length (Connection.subflows sconn))
  | None -> Alcotest.fail "no server connection"

(* The paper's "create subflow on an arbitrary 4-tuple" and "set subflow
   backup priority" commands end to end: the kernel opens the subflow on
   exactly the requested four-tuple with the backup flag set, and clearing
   the flag reaches the peer's subflow as MP_PRIO. *)
let test_four_tuple_and_backup_commands () =
  let engine, topo, client_ep, _, accepted, setup = make () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  let want =
    Ip.flow
      ~src:(Ip.endpoint p1.Topology.client_addr 40_000)
      ~dst:(Ip.endpoint p1.Topology.server_addr 80)
  in
  let joined = ref None in
  Pm_lib.on_event setup.Setup.pm
    ~mask:(Pm_msg.Mask.estab lor Pm_msg.Mask.sub_estab)
    (function
      | Pm_msg.Estab { token } ->
          Pm_lib.create_subflow setup.Setup.pm ~token ~src:want.Ip.src.Ip.addr
            ~src_port:want.Ip.src.Ip.port ~dst:want.Ip.dst ~backup:true ()
      | Pm_msg.Sub_estab { token; sub_id; flow; backup } when Ip.equal_flow flow want ->
          joined := Some (token, sub_id, backup)
      | _ -> ());
  run engine 1000;
  let on_flow c f =
    match List.find_opt (fun sf -> Ip.equal_flow (Subflow.flow sf) f) (Connection.subflows c) with
    | Some sf -> sf
    | None -> Alcotest.failf "no subflow on %s" (Format.asprintf "%a" Ip.pp_flow f)
  in
  let server = match !accepted with Some c -> c | None -> Alcotest.fail "no server connection" in
  let client_sf = on_flow conn want and server_sf = on_flow server (Ip.reverse want) in
  let token, sub_id =
    match !joined with
    | Some (token, sub_id, backup) ->
        checkb "sub_estab reports the backup flag" true backup;
        (token, sub_id)
    | None -> Alcotest.fail "no sub_estab on the requested four-tuple"
  in
  checkb "client subflow is backup" true (Subflow.is_backup client_sf);
  checkb "peer subflow joined as backup" true (Subflow.is_backup server_sf);
  let result = ref None in
  Pm_lib.set_backup setup.Setup.pm ~token ~sub_id ~backup:false
    ~on_result:(fun r -> result := Some r)
    ();
  run engine 1500;
  checkb "set_backup acked" true (!result = Some (Ok ()));
  checkb "client subflow cleared" false (Subflow.is_backup client_sf);
  checkb "peer subflow cleared by MP_PRIO" false (Subflow.is_backup server_sf)

let test_remove_subflow_command () =
  let engine, topo, client_ep, _, _, setup = make () in
  let conn = connect topo client_ep in
  let closed_events = ref [] in
  Pm_lib.on_event setup.Setup.pm
    ~mask:(Pm_msg.Mask.sub_estab lor Pm_msg.Mask.sub_closed)
    (function
      | Pm_msg.Sub_estab { token; sub_id; _ } ->
          Pm_lib.remove_subflow setup.Setup.pm ~token ~sub_id ()
      | Pm_msg.Sub_closed { error; _ } -> closed_events := error :: !closed_events
      | _ -> ());
  run engine 1000;
  checki "subflow removed" 0 (List.length (Connection.subflows conn));
  match !closed_events with
  | [ Some Smapp_tcp.Tcp_error.Econnreset ] -> ()
  | l -> Alcotest.failf "expected one ECONNRESET close, got %d events" (List.length l)

let test_get_conn_info () =
  let engine, topo, client_ep, _, _, setup = make () in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 100_000
    | _ -> ());
  let info = ref None in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.estab (function
    | Pm_msg.Estab { token } ->
        (* poll after the transfer has surely finished *)
        ignore
          (Engine.after engine (Time.span_ms 800) (fun () ->
               Pm_lib.get_conn_info setup.Setup.pm ~token (function
                 | Ok i -> info := Some i
                 | Error e -> Alcotest.failf "get_conn_info: %s" e)))
    | _ -> ());
  run engine 2000;
  match !info with
  | Some i ->
      checki "bytes sent" 100_000 i.Pm_msg.ci_bytes_sent;
      checki "bytes acked" 100_000 i.Pm_msg.ci_bytes_acked;
      checki "one subflow" 1 i.Pm_msg.ci_subflow_count
  | None -> Alcotest.fail "no conn info reply"

let test_get_sub_info () =
  let engine, topo, client_ep, _, _, setup = make () in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 50_000
    | _ -> ());
  let info = ref None in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.sub_estab (function
    | Pm_msg.Sub_estab { token; sub_id; _ } ->
        ignore
          (Engine.after engine (Time.span_ms 800) (fun () ->
               Pm_lib.get_sub_info setup.Setup.pm ~token ~sub_id (function
                 | Ok i -> info := Some i
                 | Error e -> Alcotest.failf "get_sub_info: %s" e)))
    | _ -> ());
  run engine 2000;
  match !info with
  | Some i ->
      checkb "snd_una advanced" true (i.Pm_msg.si_snd_una > 50_000);
      checkb "pacing rate positive" true (i.Pm_msg.si_pacing_rate > 0.0);
      checkb "srtt present" true (i.Pm_msg.si_srtt <> None)
  | None -> Alcotest.fail "no sub info reply"

let test_unknown_token_error () =
  let engine, _, _, _, _, setup = make () in
  let result = ref None in
  Pm_lib.get_conn_info setup.Setup.pm ~token:0xBAD (fun r -> result := Some r);
  run engine 100;
  match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "expected an error"
  | None -> Alcotest.fail "no reply at all"

let test_replay_on_subscribe () =
  (* controller subscribing AFTER establishment still learns the connection *)
  let engine, topo, client_ep, _, _, setup = make () in
  let conn = connect topo client_ep in
  run engine 500;
  checkb "established before subscribe" true (Connection.established conn);
  let created = ref 0 and estab = ref 0 in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.all (fun ev ->
      match ev with
      | Pm_msg.Created _ -> incr created
      | Pm_msg.Estab _ -> incr estab
      | _ -> ());
  run engine 600;
  checki "created replayed" 1 !created;
  checki "estab replayed" 1 !estab

let test_timeout_event_carries_rto () =
  let engine, topo, client_ep, _, _, setup = make () in
  let conn = connect topo client_ep in
  Connection.subscribe conn (function
    | Connection.Established -> Connection.send conn 5_000_000
    | _ -> ());
  let rtos = ref [] in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.timeout (function
    | Pm_msg.Timeout { rto; count; _ } -> rtos := (Time.span_to_float_s rto, count) :: !rtos
    | _ -> ());
  (* cut the path after 200 ms: RTOs start firing *)
  Netem.down_at engine (Time.add Time.zero (Time.span_ms 200))
    (List.hd topo.Topology.paths).Topology.cable;
  Engine.run ~until:(Time.add Time.zero (Time.span_s 10)) engine;
  checkb "several timeout events" true (List.length !rtos >= 3);
  (* counts increase and rto values grow *)
  let sorted = List.rev !rtos in
  let counts = List.map snd sorted in
  checkb "counts increase" true (List.sort compare counts = counts)

let test_local_addr_events () =
  let engine, topo, client_ep, _, _, setup = make () in
  let _conn = connect topo client_ep in
  let events = ref [] in
  Pm_lib.on_event setup.Setup.pm
    ~mask:(Pm_msg.Mask.new_local_addr lor Pm_msg.Mask.del_local_addr)
    (fun ev -> events := ev :: !events);
  let nic1 = List.nth (Host.nics topo.Topology.client) 1 in
  ignore (Engine.after engine (Time.span_ms 100) (fun () -> Host.set_nic_up nic1 false));
  ignore (Engine.after engine (Time.span_ms 200) (fun () -> Host.set_nic_up nic1 true));
  run engine 500;
  let names =
    List.rev_map
      (function
        | Pm_msg.Del_local_addr { ifname; _ } -> "del:" ^ ifname
        | Pm_msg.New_local_addr { ifname; _ } -> "new:" ^ ifname
        | _ -> "?")
      !events
  in
  Alcotest.(check (list string)) "flap events" [ "del:c-eth1"; "new:c-eth1" ] names

let test_reply_routing_interleaved () =
  (* Many outstanding commands at once: each reply must land on the callback
     of the request with the matching sequence number, not on whichever was
     registered first. Even requests are valid (Ok), odd ones query a
     nonexistent subflow (Error) — any misrouting flips a result. *)
  let engine, topo, client_ep, _, _, setup = make () in
  let conn = connect topo client_ep in
  run engine 300;
  checkb "established" true (Connection.established conn);
  let token = Connection.local_token conn in
  let n = 24 in
  let results = Array.make n None in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then
      Pm_lib.get_conn_info setup.Setup.pm ~token (fun r ->
          results.(i) <- Some (Result.is_ok r))
    else
      Pm_lib.get_sub_info setup.Setup.pm ~token ~sub_id:999 (fun r ->
          results.(i) <- Some (Result.is_ok r))
  done;
  checki "all in flight" n (Pm_lib.pending_requests setup.Setup.pm);
  run engine 900;
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "request %d never answered" i
      | Some ok -> checkb (Printf.sprintf "request %d routed to its caller" i) (i mod 2 = 0) ok)
    results;
  checki "none left pending" 0 (Pm_lib.pending_requests setup.Setup.pm)

let test_kernel_pm_counters () =
  let engine, topo, client_ep, _, _, setup = make () in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.all (fun _ -> ());
  let _conn = connect topo client_ep in
  run engine 500;
  checkb "events sent" true (Kernel_pm.events_sent setup.Setup.kernel_pm >= 2);
  checkb "subscribe executed" true (Kernel_pm.commands_executed setup.Setup.kernel_pm >= 1);
  checki "mask set" Pm_msg.Mask.all (Kernel_pm.mask setup.Setup.kernel_pm)

let () =
  Alcotest.run "core"
    [
      ( "control plane",
        [
          Alcotest.test_case "events flow" `Quick test_events_flow_to_userspace;
          Alcotest.test_case "subscription filters" `Quick test_subscription_filters;
          Alcotest.test_case "create subflow" `Quick test_create_subflow_command;
          Alcotest.test_case "remove subflow" `Quick test_remove_subflow_command;
          Alcotest.test_case "four-tuple and backup commands" `Quick
            test_four_tuple_and_backup_commands;
          Alcotest.test_case "get conn info" `Quick test_get_conn_info;
          Alcotest.test_case "get sub info" `Quick test_get_sub_info;
          Alcotest.test_case "unknown token" `Quick test_unknown_token_error;
          Alcotest.test_case "replay on subscribe" `Quick test_replay_on_subscribe;
          Alcotest.test_case "timeout carries rto" `Quick test_timeout_event_carries_rto;
          Alcotest.test_case "local addr events" `Quick test_local_addr_events;
          Alcotest.test_case "kernel pm counters" `Quick test_kernel_pm_counters;
          Alcotest.test_case "reply routing interleaved" `Quick
            test_reply_routing_interleaved;
        ] );
    ]
