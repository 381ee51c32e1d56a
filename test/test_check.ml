(* Tests for the correctness tooling: the FSM conformance checker and
   the tie-order race explorer — plus the wraparound property tests for
   Seq32.compare/min/max. The typed analyzer has its own suite
   (test_analysis). *)

open Smapp_sim
module Check = Smapp_check
module Fsm = Smapp_check.Fsm
module Tcb = Smapp_tcp.Tcb
module Tcp_info = Smapp_tcp.Tcp_info
module Seq32 = Smapp_tcp.Seq32
module Connection = Smapp_mptcp.Connection

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* === Seq32 wraparound properties ============================================= *)

let seq_arb =
  QCheck.make
    ~print:(fun n -> Printf.sprintf "%#x" n)
    QCheck.Gen.(map (fun n -> n land 0xFFFF_FFFF) (int_bound max_int))

(* offsets small enough that signed 32-bit distance is well-defined *)
let delta_arb = QCheck.int_range 1 0x3FFF_FFFF

let qcheck_tests =
  [
    QCheck.Test.make ~name:"compare agrees with lt/gt across wraparound" ~count:1000
      (QCheck.pair seq_arb delta_arb)
      (fun (a, d) ->
        let s = Seq32.of_int a in
        let s' = Seq32.add s d in
        (* s' is d ahead of s even when the raw int wrapped past 2^32 *)
        Seq32.compare s s' < 0 && Seq32.compare s' s > 0 && Seq32.compare s s = 0);
    QCheck.Test.make ~name:"min/max pick by sequence order, not raw ints" ~count:1000
      (QCheck.pair seq_arb delta_arb)
      (fun (a, d) ->
        let s = Seq32.of_int a in
        let s' = Seq32.add s d in
        Seq32.min s s' = s && Seq32.max s s' = s');
    QCheck.Test.make ~name:"raw polymorphic compare disagrees across the boundary"
      ~count:1000 delta_arb
      (fun d ->
        (* the bug poly-compare-seq exists for: near the wrap point the raw
           representation inverts the order that compare gets right *)
        let near_max = Seq32.of_int 0xFFFF_FFFF in
        let wrapped = Seq32.add near_max d in
        Seq32.compare near_max wrapped < 0
        && Stdlib.compare (Seq32.to_int near_max) (Seq32.to_int wrapped) > 0);
  ]

(* === FSM tables and conformance ============================================== *)

let test_fsm_self_check () =
  match Fsm.self_check () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_fsm_tables () =
  checki "ten tcp states" 10 (List.length Fsm.tcp_states);
  checki "five phases" 5 (List.length Fsm.phases);
  checkb "handshake edge" true (Fsm.tcp_legal Tcp_info.Syn_sent Tcp_info.Established);
  checkb "no resurrect" false (Fsm.tcp_legal Tcp_info.Closed Tcp_info.Established);
  checkb "no skip to time_wait" false
    (Fsm.tcp_legal Tcp_info.Established Tcp_info.Time_wait);
  checkb "phases monotone" false
    (Fsm.phase_legal Connection.P_finning Connection.P_established)

let test_fsm_legal_run () =
  (* a full two-subflow transfer under the installed checker: every observed
     transition must be in-table, and plenty must be observed *)
  let digest = Check.Scenarios.two_subflow_transfer (Engine.create ~seed:11 ()) in
  checkb "transfer completed" true
    (digest = "client:CLOSED acked=200000 subs=0 | server:CLOSED rx=200000 subs=0");
  checkb "transitions observed" true (Fsm.transitions_seen () > 20)

let test_fsm_illegal_transition_raises () =
  Fsm.install ();
  Fun.protect ~finally:Fsm.uninstall (fun () ->
      let flow =
        Smapp_netsim.Ip.flow
          ~src:(Smapp_netsim.Ip.endpoint (Smapp_netsim.Ip.of_string "10.0.0.1") 1000)
          ~dst:(Smapp_netsim.Ip.endpoint (Smapp_netsim.Ip.of_string "10.0.0.2") 80)
      in
      (* drive the installed hook with an edge outside the table, as a
         regressed Tcb would *)
      match (Atomic.get Tcb.transition_hook) ~flow Tcp_info.Closed Tcp_info.Established with
      | () -> Alcotest.fail "expected Conformance"
      | exception Fsm.Conformance msg ->
          let has sub =
            let n = String.length sub and m = String.length msg in
            let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
            go 0
          in
          checkb "names the edge" true (has "illegal transition CLOSED -> ESTABLISHED");
          checkb "carries the trace" true (has "trace (oldest first):"))

let test_fsm_post_fin_subflow_raises () =
  Fsm.install ();
  Fun.protect ~finally:Fsm.uninstall (fun () ->
      checkb "registering while established is fine" true
        (try
           (Atomic.get Connection.subflow_open_hook) ~id:1 Connection.P_established;
           true
         with Fsm.Conformance _ -> false);
      checkb "registering after FIN raises" true
        (try
           (Atomic.get Connection.subflow_open_hook) ~id:1 Connection.P_finning;
           false
         with Fsm.Conformance _ -> true))

(* One switch gates the TCB and the connection hooks: off until [install],
   and off again after [uninstall]. *)
let test_fsm_hooks_off_by_default () =
  checkb "conformance switch off" false (Atomic.get Tcb.checks_enabled);
  Fsm.install ();
  checkb "install sets it" true (Atomic.get Tcb.checks_enabled);
  Fsm.uninstall ();
  checkb "uninstall clears it" false (Atomic.get Tcb.checks_enabled)

(* === tie-order exploration =================================================== *)

let test_explore_invariant_scenarios () =
  (* every order of the two-subflow scenario reaches the same final state *)
  let o = Check.Explore.run Check.Scenarios.two_subflow_transfer in
  checki "schedules" 32 o.Check.Explore.schedules;
  checkb "invariant" true (Check.Explore.consistent o);
  checki "one outcome" 1 (List.length o.Check.Explore.digests)

let test_explore_regression_scenarios () =
  let o = Check.Explore.run Check.Scenarios.close_wait_deadlock in
  checki "close-wait schedules" 32 o.Check.Explore.schedules;
  checkb "close-wait drains in all orders" true (Check.Explore.consistent o);
  checkb "bytes drained" true
    (String.length o.Check.Explore.baseline > 0
    && o.Check.Explore.baseline
       = "client:CLOSED acked=400000 subs=0 | server:CLOSED rx=400000 subs=0");
  let o = Check.Explore.run Check.Scenarios.post_fin_subflow in
  checki "post-fin schedules" 32 o.Check.Explore.schedules;
  checkb "post-fin invariant" true (Check.Explore.consistent o);
  checkb "join refused once finning" true
    (let b = o.Check.Explore.baseline in
     String.length b >= 21
     && String.sub b (String.length b - 21) 21 = "post-fin-refused:true")

let test_explore_detects_order_sensitivity () =
  (* a deliberately racy scenario: two same-instant events fight over one
     cell; FIFO lands "b" last, the one other schedule lands "a" last *)
  let racy engine =
    let cell = ref "" in
    ignore (Engine.at engine Time.zero (fun () -> cell := !cell ^ "a"));
    ignore (Engine.at engine Time.zero (fun () -> cell := !cell ^ "b"));
    Engine.run engine;
    !cell
  in
  let o = Check.Explore.run racy in
  checki "two schedules" 2 o.Check.Explore.schedules;
  checkb "baseline is fifo order" true (o.Check.Explore.baseline = "ab");
  checkb "the other pick diverges" true (o.Check.Explore.divergent = Some ([ 1 ], "ba"));
  checki "both orders seen" 2 (List.length o.Check.Explore.digests)

(* Picking index 0 at every tie is the FIFO run, event for event. *)
let test_explore_zero_is_fifo () =
  let run engine =
    let digest = Check.Scenarios.two_subflow_transfer engine in
    (digest, Engine.events_executed engine)
  in
  let fifo = run (Engine.create ~seed:7 ()) in
  Alcotest.(check (pair string int))
    "same digest and events" fifo
    (run (Engine.create ~seed:7 ~choose:(fun _ -> 0) ()));
  checki "events" 304 (snd fifo)

(* A scenario that is not a function of its picks: its first run ties
   two events, and every later run [later]. *)
let test_explore_nondeterminism_is_a_bug () =
  let ties later =
    let first = ref true in
    fun engine ->
      for _ = 1 to if !first then 2 else later do
        ignore (Engine.at engine Time.zero ignore)
      done;
      first := false;
      Engine.run engine;
      ""
  in
  List.iter
    (fun (name, later) ->
      match Check.Explore.run (ties later) with
      | _ -> Alcotest.failf "%s: expected Bug" name
      | exception Bug.Bug _ -> ())
    [ ("group grows", 3); ("tie vanishes", 1) ]

(* Eight events at one instant make 8! = 40,320 schedules: the guard
   stops the walk after 10,000. *)
let test_explore_tree_guard () =
  let runs = ref 0 in
  let eight engine =
    incr runs;
    for _ = 1 to 8 do
      ignore (Engine.at engine Time.zero ignore)
    done;
    Engine.run engine;
    ""
  in
  (match Check.Explore.run eight with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  checki "schedules run" 10_000 !runs

let () =
  Alcotest.run "check"
    [
      ("seq32", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
      ( "fsm",
        [
          Alcotest.test_case "table self-check" `Quick test_fsm_self_check;
          Alcotest.test_case "table contents" `Quick test_fsm_tables;
          Alcotest.test_case "legal run conforms" `Quick test_fsm_legal_run;
          Alcotest.test_case "illegal transition raises" `Quick
            test_fsm_illegal_transition_raises;
          Alcotest.test_case "post-fin subflow raises" `Quick
            test_fsm_post_fin_subflow_raises;
          Alcotest.test_case "hooks off by default" `Quick test_fsm_hooks_off_by_default;
        ] );
      ( "explore",
        [
          Alcotest.test_case "invariant under every tie order" `Quick
            test_explore_invariant_scenarios;
          Alcotest.test_case "regression scenarios" `Quick
            test_explore_regression_scenarios;
          Alcotest.test_case "detects order sensitivity" `Quick
            test_explore_detects_order_sensitivity;
          Alcotest.test_case "picking zero is fifo" `Quick test_explore_zero_is_fifo;
          Alcotest.test_case "nondeterminism is a bug" `Quick
            test_explore_nondeterminism_is_a_bug;
          Alcotest.test_case "tree guard" `Quick test_explore_tree_guard;
        ] );
    ]
