(* Fault-injection tests: the lossy Netlink channel, the PM library's
   retry/resync recovery, the kernel-side idempotency cache and watchdog,
   and the errno-split reconnection backoff. *)

open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Pm_msg = Smapp_core.Pm_msg
module Pm_lib = Smapp_core.Pm_lib
module Kernel_pm = Smapp_core.Kernel_pm
module Retry = Smapp_core.Retry
module Channel = Smapp_netlink.Channel
module Conn_view = Smapp_controllers.Conn_view
module Fullmesh = Smapp_controllers.Fullmesh
module E = Smapp_experiments

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let make ?profile () =
  let engine = Engine.create ~seed:77 () in
  let topo = Topology.parallel_paths engine ~n:2 () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server_ep ~port:80 (fun conn -> accepted := Some conn);
  let setup = Setup.attach ?profile client_ep in
  (engine, topo, client_ep, accepted, setup)

let connect (topo : Topology.parallel) client_ep =
  let p0 = List.hd topo.Topology.paths in
  Endpoint.connect client_ep ~src:p0.Topology.client_addr
    ~dst:(Ip.endpoint p0.Topology.server_addr 80)
    ()

let run engine s = Engine.run_until engine (Time.add Time.zero (Time.span_ms s))

(* --- retry policy ------------------------------------------------------------ *)

let test_retry_growth_and_cap () =
  let p =
    {
      Retry.base = Time.span_ms 10;
      factor = 2.0;
      max_delay = Time.span_ms 80;
      max_attempts = 6;
      jitter = 0.0;
    }
  in
  let d n = Time.span_to_float_s (Retry.delay_for p ~attempt:n) in
  Alcotest.(check (float 1e-9)) "attempt 0" 0.010 (d 0);
  Alcotest.(check (float 1e-9)) "attempt 1" 0.020 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.040 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 3 capped" 0.080 (d 3);
  Alcotest.(check (float 1e-9)) "attempt 5 capped" 0.080 (d 5);
  Alcotest.(check (float 1e-9))
    "total = sum" (0.010 +. 0.020 +. 0.040 +. 0.080 +. 0.080 +. 0.080)
    (Time.span_to_float_s (Retry.total_delay p))

let test_retry_jitter_band () =
  let p =
    {
      Retry.base = Time.span_ms 100;
      factor = 1.0;
      max_delay = Time.span_s 1;
      max_attempts = 4;
      jitter = 0.2;
    }
  in
  let rng = Rng.of_int 5 in
  for _ = 1 to 50 do
    let d = Time.span_to_float_s (Retry.delay_for ~rng p ~attempt:0) in
    checkb "within +-20%" true (d >= 0.080 -. 1e-9 && d <= 0.120 +. 1e-9)
  done

let test_retry_loop_exhausts () =
  let engine = Engine.create ~seed:1 () in
  let p =
    {
      Retry.base = Time.span_ms 10;
      factor = 2.0;
      max_delay = Time.span_ms 40;
      max_attempts = 3;
      jitter = 0.0;
    }
  in
  let fired = ref [] in
  let dead = ref false in
  let _run =
    Retry.start engine p
      ~body:(fun ~attempt -> fired := attempt :: !fired)
      ~exhausted:(fun () -> dead := true)
      ()
  in
  run engine 1000;
  Alcotest.(check (list int)) "three attempts" [ 2; 1; 0 ] !fired;
  checkb "exhausted fired" true !dead

let test_retry_loop_cap_respected () =
  let engine = Engine.create ~seed:1 () in
  let p =
    {
      Retry.base = Time.span_ms 10;
      factor = 2.0;
      max_delay = Time.span_ms 40;
      max_attempts = 6;
      jitter = 0.0;
    }
  in
  let times = ref [] in
  let _run =
    Retry.start engine p
      ~body:(fun ~attempt:_ ->
        times := Time.to_float_s (Engine.now engine) :: !times)
      ~exhausted:(fun () -> ())
      ()
  in
  run engine 1000;
  let ts = List.rev !times in
  checki "six attempts" 6 (List.length ts);
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  (* once the schedule hits max_delay, every inter-attempt gap stays there *)
  List.iter
    (fun g -> checkb "gap never exceeds the cap" true (g <= 0.040 +. 1e-9))
    (gaps ts)

let test_retry_jitter_deterministic () =
  let p =
    {
      Retry.base = Time.span_ms 100;
      factor = 2.0;
      max_delay = Time.span_s 1;
      max_attempts = 6;
      jitter = 0.2;
    }
  in
  let delays seed =
    let rng = Rng.of_int seed in
    List.init 6 (fun a -> Time.span_to_float_s (Retry.delay_for ~rng p ~attempt:a))
  in
  checkb "same seed, same schedule" true (delays 7 = delays 7);
  checkb "different seed, different schedule" true (delays 7 <> delays 8)

(* --- channel faults ---------------------------------------------------------- *)

let test_buffer_overflow_enobufs () =
  let engine = Engine.create ~seed:1 () in
  let ch = Channel.create engine () in
  Channel.set_fault_profile ch { Channel.reliable with Channel.buffer = 2 };
  let got = ref 0 in
  Channel.on_user_receive ch (fun _ -> incr got);
  for _ = 1 to 5 do
    Channel.kernel_send ch "x"
  done;
  run engine 10;
  checki "two delivered" 2 !got;
  checki "three hit ENOBUFS" 3 (Channel.stats ch).Channel.s_overflowed

let test_channel_fifo_under_jitter () =
  let engine = Engine.create ~seed:9 () in
  let ch = Channel.create engine () in
  Channel.set_fault_profile ch
    { Channel.reliable with Channel.extra_jitter = Time.span_ms 5 };
  let got = ref [] in
  Channel.on_user_receive ch (fun b -> got := b :: !got);
  for i = 1 to 20 do
    Channel.kernel_send ch (string_of_int i)
  done;
  run engine 1000;
  Alcotest.(check (list string))
    "in-order delivery"
    (List.init 20 (fun i -> string_of_int (i + 1)))
    (List.rev !got)

(* --- command retry and idempotency ------------------------------------------- *)

let test_retry_until_ack () =
  let engine, topo, client_ep, _, setup = make () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  let result = ref None in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.estab (function
    | Pm_msg.Estab { token } ->
        (* lose exactly the first transmission of the command *)
        Channel.inject_drop setup.Setup.channel Channel.To_kernel 1;
        Pm_lib.create_subflow setup.Setup.pm ~token ~src:p1.Topology.client_addr
          ~dst:(Ip.endpoint p1.Topology.server_addr 80)
          ~on_result:(fun r -> result := Some r)
          ()
    | _ -> ());
  run engine 1000;
  checkb "command eventually acked" true (!result = Some (Ok ()));
  checki "one retransmission" 1 (Pm_lib.retries setup.Setup.pm);
  checki "subflow created once" 2 (List.length (Connection.subflows conn))

let test_lost_reply_does_not_double_create () =
  let engine, topo, client_ep, _, setup = make () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.estab (function
    | Pm_msg.Estab { token } ->
        (* the command gets through; its ack is lost -> the retransmission
           must hit the idempotency cache, not re-execute *)
        Channel.inject_drop setup.Setup.channel Channel.To_user 1;
        Pm_lib.create_subflow setup.Setup.pm ~token ~src:p1.Topology.client_addr
          ~dst:(Ip.endpoint p1.Topology.server_addr 80)
          ()
    | _ -> ());
  run engine 1000;
  checki "exactly two subflows" 2 (List.length (Connection.subflows conn));
  checkb "cache replayed the reply" true
    (Kernel_pm.duplicate_commands setup.Setup.kernel_pm >= 1)

let test_duplicated_channel_is_idempotent () =
  let profile = { Channel.reliable with Channel.duplicate = 1.0 } in
  let engine, topo, client_ep, _, setup = make ~profile () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  Pm_lib.on_event setup.Setup.pm ~mask:Pm_msg.Mask.estab (function
    | Pm_msg.Estab { token } ->
        Pm_lib.create_subflow setup.Setup.pm ~token ~src:p1.Topology.client_addr
          ~dst:(Ip.endpoint p1.Topology.server_addr 80)
          ()
    | _ -> ());
  run engine 1000;
  checki "duplication created nothing extra" 2 (List.length (Connection.subflows conn));
  checkb "kernel saw duplicate commands" true
    (Kernel_pm.duplicate_commands setup.Setup.kernel_pm >= 1);
  checkb "library dropped duplicate events" true
    (Pm_lib.duplicate_events_dropped setup.Setup.pm >= 1)

(* Pm_lib draws each idempotency key at random, so two different commands
   can share one: the kernel replays a cached reply only to the command it
   answered, and executes any other. *)
let test_key_collision_executes () =
  let engine, topo, client_ep, _, setup = make () in
  let conn = connect topo client_ep in
  run engine 500;
  let sf = List.hd (Connection.subflows conn) in
  let kpm = setup.Setup.kernel_pm in
  let executed = Kernel_pm.commands_executed kpm in
  let send ~seq backup =
    Channel.user_send setup.Setup.channel
      (Pm_msg.encode_command ~key:42 ~seq
         (Pm_msg.Set_backup
            { token = Connection.local_token conn; sub_id = sf.Subflow.id; backup }))
  in
  send ~seq:1000 true;
  run engine 600;
  checkb "backup set" true (Subflow.is_backup sf);
  send ~seq:1001 false;
  run engine 700;
  checki "both executed" 2 (Kernel_pm.commands_executed kpm - executed);
  checki "nothing replayed" 0 (Kernel_pm.duplicate_commands kpm);
  checkb "backup cleared" false (Subflow.is_backup sf);
  (* a byte-identical resend is a retransmission: it still replays *)
  send ~seq:1001 false;
  run engine 800;
  checki "resend replayed" 1 (Kernel_pm.duplicate_commands kpm);
  checki "resend not executed" 2 (Kernel_pm.commands_executed kpm - executed)

(* --- gap detection and resync ------------------------------------------------ *)

let test_gap_triggers_resync () =
  let engine, topo, client_ep, _, setup = make () in
  let view = Conn_view.create setup.Setup.pm () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  run engine 500;
  checki "view synced" 1 (List.length (Conn_view.conns view));
  (* lose the sub_estab event for a kernel-side subflow... *)
  Channel.inject_drop setup.Setup.channel Channel.To_user 1;
  ignore
    (Connection.add_subflow conn ~src:p1.Topology.client_addr
       ~dst:(Ip.endpoint p1.Topology.server_addr 80)
       ());
  run engine 1000;
  (* ...then let any later event expose the sequence gap *)
  ignore
    (Connection.add_subflow conn ~src:(List.hd topo.Topology.paths).Topology.client_addr
       ~dst:(Ip.endpoint p1.Topology.server_addr 80)
       ());
  run engine 2000;
  checki "gap detected" 1 (Pm_lib.gaps_detected setup.Setup.pm);
  checkb "resync ran" true (Pm_lib.resyncs setup.Setup.pm >= 1);
  let c = List.hd (Conn_view.conns view) in
  checki "view recovered every subflow" 3 (List.length c.Conn_view.cv_subs);
  checki "kernel agrees" 3 (List.length (Connection.subflows conn))

let test_daemon_restart_resyncs () =
  let engine, topo, client_ep, _, setup = make () in
  let view = Conn_view.create setup.Setup.pm () in
  let conn = connect topo client_ep in
  let p1 = List.nth topo.Topology.paths 1 in
  run engine 500;
  (* daemon dies; the kernel grows a subflow nobody tells userspace about *)
  Channel.set_user_up setup.Setup.channel false;
  ignore
    (Connection.add_subflow conn ~src:p1.Topology.client_addr
       ~dst:(Ip.endpoint p1.Topology.server_addr 80)
       ());
  run engine 1000;
  checki "view blind while down" 1
    (List.length (List.hd (Conn_view.conns view)).Conn_view.cv_subs);
  Channel.set_user_up setup.Setup.channel true;
  run engine 2000;
  checki "restart recorded" 1 (Pm_lib.restarts setup.Setup.pm);
  checkb "resync ran" true (Pm_lib.resyncs setup.Setup.pm >= 1);
  checki "view caught up" 2
    (List.length (List.hd (Conn_view.conns view)).Conn_view.cv_subs)

(* Every resync branch at once. While the daemon is down, connection [a]
   loses a subflow, [b] closes and [c] is born and establishes. The resync
   must surface each lost event through the view's callbacks, in dump order
   ([a] and [c] in creation order), and the vanished connection last. *)
let test_restart_replays_every_branch () =
  let engine, topo, client_ep, _, setup = make () in
  let view = Conn_view.create setup.Setup.pm () in
  let names = Hashtbl.create 3 in
  let log = ref [] in
  let note token what =
    let name = Option.value (Hashtbl.find_opt names token) ~default:"?" in
    log := (name ^ " " ^ what) :: !log
  in
  let logged =
    {
      Conn_view.null_handlers with
      on_established = (fun c -> note c.Conn_view.cv_token "established");
      on_sub_established = (fun c _ -> note c.Conn_view.cv_token "sub_established");
      on_sub_closed =
        (fun c _ error ->
          note c.Conn_view.cv_token
            (match error with
            | Some Smapp_tcp.Tcp_error.Etimedout -> "sub_closed etimedout"
            | Some _ -> "sub_closed other"
            | None -> "sub_closed orderly"));
      on_closed = (fun c -> note c.Conn_view.cv_token "closed");
    }
  in
  Conn_view.control view (fun c ->
      note c.Conn_view.cv_token "created";
      logged);
  let named name conn = Hashtbl.replace names (Connection.local_token conn) name in
  let p1 = List.nth topo.Topology.paths 1 in
  let a = connect topo client_ep in
  named "a" a;
  let b = connect topo client_ep in
  named "b" b;
  run engine 300;
  ignore
    (Connection.add_subflow a ~src:p1.Topology.client_addr
       ~dst:(Ip.endpoint p1.Topology.server_addr 80)
       ());
  run engine 600;
  checki "a has two subflows" 2
    (List.length (Option.get (Conn_view.find view (Connection.local_token a))).Conn_view.cv_subs);
  Channel.set_user_up setup.Setup.channel false;
  log := [];
  (match List.find_opt (fun sf -> not sf.Subflow.is_initial) (Connection.subflows a) with
  | Some sf -> Connection.remove_subflow a sf
  | None -> Alcotest.fail "a lost its joined subflow early");
  Connection.abort b;
  let c = connect topo client_ep in
  named "c" c;
  run engine 1500;
  checkb "c established while the daemon was down" true (Connection.established c);
  checkb "b gone from the kernel" true (Connection.closed b);
  Alcotest.(check (list string)) "blind while down" [] (List.rev !log);
  Channel.set_user_up setup.Setup.channel true;
  run engine 2500;
  checkb "resync ran" true (Pm_lib.resyncs setup.Setup.pm >= 1);
  Alcotest.(check (list string))
    "each lost event replayed, in order"
    [
      "a sub_closed etimedout";
      "c created";
      "c established";
      "c sub_established";
      "b closed";
    ]
    (List.rev !log)

(* --- watchdog ---------------------------------------------------------------- *)

let test_watchdog_fallback_and_handback () =
  let engine, topo, client_ep, _, setup = make () in
  let conn = connect topo client_ep in
  Pm_lib.enable_keepalive setup.Setup.pm ~interval:(Time.span_ms 20);
  Kernel_pm.enable_watchdog setup.Setup.kernel_pm
    {
      Kernel_pm.wd_interval = Time.span_ms 50;
      wd_missed_threshold = 2;
    };
  run engine 500;
  checki "no fallback while alive" 0 (Kernel_pm.fallbacks setup.Setup.kernel_pm);
  Channel.set_user_up setup.Setup.channel false;
  run engine 1000;
  checkb "watchdog fell back" true (Kernel_pm.fallback_active setup.Setup.kernel_pm);
  checki "once" 1 (Kernel_pm.fallbacks setup.Setup.kernel_pm);
  checki "kernel meshed the second path" 2 (List.length (Connection.subflows conn));
  Channel.set_user_up setup.Setup.channel true;
  run engine 1500;
  checkb "control handed back" true
    (not (Kernel_pm.fallback_active setup.Setup.kernel_pm));
  checki "one handback" 1 (Kernel_pm.handbacks setup.Setup.kernel_pm)

(* --- errno-split reconnection backoff ---------------------------------------- *)

let test_reconnect_delay_errno_split () =
  let d ?attempt e = Time.span_to_float_s (Fullmesh.reconnect_delay ?attempt e) in
  Alcotest.(check (float 1e-9)) "refused base" 2.0 (d (Some Smapp_tcp.Tcp_error.Econnrefused));
  Alcotest.(check (float 1e-9)) "reset base" 1.0 (d (Some Smapp_tcp.Tcp_error.Econnreset));
  Alcotest.(check (float 1e-9)) "timeout base" 3.0 (d (Some Smapp_tcp.Tcp_error.Etimedout));
  Alcotest.(check (float 1e-9)) "unreachable base" 5.0 (d (Some Smapp_tcp.Tcp_error.Enetunreach));
  checkb "refused != timeout" true
    (d (Some Smapp_tcp.Tcp_error.Econnrefused) <> d (Some Smapp_tcp.Tcp_error.Etimedout));
  Alcotest.(check (float 1e-9)) "doubles per attempt" 8.0
    (d ~attempt:2 (Some Smapp_tcp.Tcp_error.Econnrefused));
  Alcotest.(check (float 1e-9)) "capped at 60s" 60.0
    (d ~attempt:9 (Some Smapp_tcp.Tcp_error.Etimedout));
  Alcotest.(check (float 1e-9)) "orderly close never reconnects" 0.0 (d None)

(* --- determinism ------------------------------------------------------------- *)

let test_chaos_deterministic () =
  let r1 = E.Chaos.run_convergence ~seed:7 ~drop:0.08 ~duration:8.0 () in
  let r2 = E.Chaos.run_convergence ~seed:7 ~drop:0.08 ~duration:8.0 () in
  checkb "identical results for identical seeds" true (r1 = r2);
  checkb "no duplicate subflows" true (r1.E.Chaos.duplicate_subflows = 0);
  (match r1.E.Chaos.converged_after_s with
  | Some s -> checkb "converged within 2s" true (s <= 2.0)
  | None -> Alcotest.fail "never converged")

let () =
  Alcotest.run "faults"
    [
      ( "retry",
        [
          Alcotest.test_case "growth and cap" `Quick test_retry_growth_and_cap;
          Alcotest.test_case "jitter band" `Quick test_retry_jitter_band;
          Alcotest.test_case "loop exhausts" `Quick test_retry_loop_exhausts;
          Alcotest.test_case "loop cap respected" `Quick
            test_retry_loop_cap_respected;
          Alcotest.test_case "jitter deterministic" `Quick
            test_retry_jitter_deterministic;
        ] );
      ( "channel",
        [
          Alcotest.test_case "enobufs overflow" `Quick test_buffer_overflow_enobufs;
          Alcotest.test_case "fifo under jitter" `Quick test_channel_fifo_under_jitter;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "retry until ack" `Quick test_retry_until_ack;
          Alcotest.test_case "lost reply idempotent" `Quick
            test_lost_reply_does_not_double_create;
          Alcotest.test_case "duplication idempotent" `Quick
            test_duplicated_channel_is_idempotent;
          Alcotest.test_case "key collision executes" `Quick test_key_collision_executes;
          Alcotest.test_case "gap triggers resync" `Quick test_gap_triggers_resync;
          Alcotest.test_case "daemon restart resyncs" `Quick test_daemon_restart_resyncs;
          Alcotest.test_case "restart replays every branch" `Quick
            test_restart_replays_every_branch;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fallback and handback" `Quick
            test_watchdog_fallback_and_handback;
        ] );
      ( "fullmesh backoff",
        [
          Alcotest.test_case "errno split" `Quick test_reconnect_delay_errno_split;
        ] );
      ( "determinism",
        [ Alcotest.test_case "chaos reproducible" `Quick test_chaos_deterministic ] );
    ]
