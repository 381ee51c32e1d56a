(* Tests for Smapp_obs: one switch and one scope for all three
   instruments, registry identity and gating, histogram bucket boundaries,
   Prometheus and Chrome exporter goldens, trace-ring eviction, and — the
   property everything else leans on — that turning instrumentation on
   does not change simulation results. *)

module Scope = Smapp_obs.Scope
module Metrics = Smapp_obs.Metrics
module Trace = Smapp_obs.Trace
module Prof = Smapp_obs.Prof
module E = Smapp_experiments

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* Every test runs in one process against the global registry and the
   main domain's scope, so each uses metric names of its own and restores
   the switch it flips. *)
let with_obs f =
  let saved = Atomic.get Scope.enabled in
  Atomic.set Scope.enabled true;
  Fun.protect ~finally:(fun () -> Atomic.set Scope.enabled saved) f

(* === one switch, one scope =================================================== *)

let test_one_switch () =
  checkb "Metrics.enabled is Prof.enabled" true (Metrics.enabled == Prof.enabled);
  checkb "and the one switch" true (Metrics.enabled == Scope.enabled);
  checkb "Metrics.Scope and Prof.Scope are one scope" true
    (Metrics.Scope.current () == Prof.Scope.current ())

(* A fresh scope holds all three instruments' state: what is recorded in
   it stays there, and the caller's scope is untouched. *)
let test_with_scope_isolates_all_three () =
  with_obs (fun () ->
      let c = Metrics.counter "t_scope_total" in
      Metrics.incr c;
      let recorded = Trace.recorded () in
      let frames = List.length (Prof.report ()).Prof.p_frames in
      let inside = Scope.create () in
      Scope.with_scope inside (fun () ->
          Metrics.add c 10;
          Trace.instant ~cat:"test" "inside";
          Prof.with_frame "t_scope_frame" (fun () -> ()));
      checki "caller's counter" 1 (Metrics.value c);
      checki "caller's ring" recorded (Trace.recorded ());
      checki "caller's frames" frames (List.length (Prof.report ()).Prof.p_frames);
      Scope.with_scope inside (fun () ->
          checki "scope's counter" 10 (Metrics.value c);
          checki "scope's ring" 1 (Trace.recorded ());
          checki "scope's frames" 1 (List.length (Prof.report ()).Prof.p_frames)))

(* Words [f] allocates: the minor heap's, plus those that went straight to
   the major heap, as an array too large for the minor heap does. *)
let words f =
  let direct () =
    let st = Gc.quick_stat () in
    st.Gc.major_words -. st.Gc.promoted_words
  in
  let d0 = direct () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let d1 = direct () in
  int_of_float (m1 -. m0 +. d1 -. d0)

(* Every domain builds a root scope and every pooled job a fresh one, so a
   scope that is never traced must not pay for the 65,536-slot ring; the
   first push builds it. *)
let test_untraced_scope_builds_no_ring () =
  let w = words (fun () -> ignore (Sys.opaque_identity (Scope.create ()))) in
  checkb (Printf.sprintf "Scope.create: %d words, at most 2,000" w) true (w <= 2_000);
  Scope.with_scope (Scope.create ()) (fun () ->
      with_obs (fun () -> Trace.instant ~cat:"test" "first");
      checki "the first push builds the ring" 1 (List.length (Trace.events ()));
      checki "at the default capacity" 65_536 (Trace.capacity ()))

let test_recording () =
  let saved = Atomic.get Scope.enabled in
  Atomic.set Scope.enabled false;
  Fun.protect
    ~finally:(fun () -> Atomic.set Scope.enabled saved)
    (fun () ->
      let c = Metrics.counter "t_recording_total" in
      with_obs (fun () -> Metrics.add c 5);
      let during =
        Scope.recording (fun () ->
            let cleared = Metrics.value c in
            Metrics.incr c;
            (cleared, Atomic.get Scope.enabled))
      in
      checki "cleared first" 0 (fst during);
      checkb "on while it runs" true (snd during);
      checkb "switch restored" false (Atomic.get Scope.enabled);
      checki "what it recorded stays" 1 (Metrics.value c))

(* === metrics registry ======================================================== *)

let test_counter_identity () =
  with_obs (fun () ->
      let a = Metrics.counter ~labels:[ ("dir", "up") ] "t_id_total" in
      let b = Metrics.counter ~labels:[ ("dir", "up") ] "t_id_total" in
      let other = Metrics.counter ~labels:[ ("dir", "down") ] "t_id_total" in
      Metrics.incr a;
      Metrics.incr a;
      checki "same (name, labels) is the same metric" 2 (Metrics.value b);
      checki "different labels are a different series" 0 (Metrics.value other);
      Metrics.add a 3;
      checki "add" 5 (Metrics.value a))

let test_disabled_is_noop () =
  let saved = Atomic.get Metrics.enabled in
  Atomic.set Metrics.enabled false;
  Fun.protect
    ~finally:(fun () -> Atomic.set Metrics.enabled saved)
    (fun () ->
      let c = Metrics.counter "t_gated_total" in
      let g = Metrics.gauge "t_gated_gauge" in
      let h = Metrics.histogram "t_gated_ns" in
      Metrics.incr c;
      Metrics.add c 10;
      Metrics.set g 4.2;
      Metrics.observe h 123.0;
      checki "counter untouched" 0 (Metrics.value c);
      checkf "gauge untouched" 0.0 (Metrics.gauge_value g);
      checki "histogram untouched" 0 (Metrics.histogram_count h))

let test_kind_mismatch () =
  ignore (Metrics.counter "t_kind_total");
  Alcotest.check_raises "gauge under a counter name"
    (Invalid_argument "Metrics: t_kind_total already registered with a different kind")
    (fun () -> ignore (Metrics.gauge "t_kind_total"))

let test_histogram_buckets () =
  with_obs (fun () ->
      let h = Metrics.histogram ~base:10.0 ~growth:10.0 ~buckets:3 "t_buckets_ns" in
      Alcotest.(check (array (float 1e-9)))
        "bounds are base * growth^i"
        [| 10.0; 100.0; 1000.0 |] (Metrics.bucket_bounds h);
      Metrics.observe h 10.0;
      (* le semantics: a value equal to a bound lands in that bound's bucket *)
      Metrics.observe h 10.5;
      Metrics.observe h 1000.0;
      Metrics.observe h 5000.0;
      Alcotest.(check (array int))
        "per-bucket counts with trailing +Inf cell"
        [| 1; 1; 1; 1 |] (Metrics.bucket_counts h);
      checki "count" 4 (Metrics.histogram_count h);
      checkf "sum" 6020.5 (Metrics.histogram_sum h))

(* With observability on, an observation finds its bucket and adds to the
   sum in place: 0 words per call once the cell exists. *)
let test_observe_allocates_nothing () =
  with_obs (fun () ->
      let h = Metrics.histogram ~base:10.0 ~growth:10.0 ~buckets:3 "t_observe_alloc_ns" in
      Metrics.observe h 500.0;
      let calls = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        Metrics.observe h 500.0
      done;
      let words = int_of_float (Gc.minor_words () -. before) in
      checki "observed" (calls + 1) (Metrics.histogram_count h);
      checki (Printf.sprintf "words per observe (%d over %d)" words calls) 0 (words / calls))

let test_clear_keeps_registrations () =
  with_obs (fun () ->
      let c = Metrics.counter "t_clear_total" in
      Metrics.incr c;
      Scope.clear ();
      checki "value zeroed" 0 (Metrics.value c);
      checkb "registration survives" true
        (List.exists (fun (n, _) -> n = "t_clear_total") (Metrics.families ()));
      Metrics.incr c;
      checki "handle still live after clear" 1 (Metrics.value c))

let test_prometheus_golden () =
  with_obs (fun () ->
      let c =
        Metrics.counter ~help:"requests seen" ~labels:[ ("dir", "up") ] "t_gold_total"
      in
      let h =
        Metrics.histogram ~help:"latency" ~base:10.0 ~growth:10.0 ~buckets:2 "t_gold_ns"
      in
      Metrics.incr c;
      Metrics.incr c;
      Metrics.observe h 5.0;
      Metrics.observe h 50.0;
      Metrics.observe h 5000.0;
      let expected =
        "# HELP t_gold_total requests seen\n\
         # TYPE t_gold_total counter\n\
         t_gold_total{dir=\"up\"} 2\n\
         # HELP t_gold_ns latency\n\
         # TYPE t_gold_ns histogram\n\
         t_gold_ns_bucket{le=\"10\"} 1\n\
         t_gold_ns_bucket{le=\"100\"} 2\n\
         t_gold_ns_bucket{le=\"+Inf\"} 3\n\
         t_gold_ns_sum 5055\n\
         t_gold_ns_count 3\n"
      in
      checks "exposition text"
        expected
        (Metrics.to_prometheus ~names:[ "t_gold_total"; "t_gold_ns" ] ()))

(* The JSON exposition of one counter, one gauge and one histogram, cut
   from the whole registry's array by name. *)
let test_json_golden () =
  with_obs (fun () ->
      let c = Metrics.counter ~labels:[ ("dir", "up") ] "t_json_total" in
      let g = Metrics.gauge "t_json_gauge" in
      let h = Metrics.histogram ~base:10.0 ~growth:10.0 ~buckets:2 "t_json_ns" in
      Metrics.add c 3;
      Metrics.set g 2.5;
      Metrics.observe h 5.0;
      Metrics.observe h 50.0;
      Metrics.observe h 5000.0;
      let module Json = Smapp_stats.Json in
      let ours = function
        | Json.Obj (("name", Json.String n) :: _) ->
            List.mem n [ "t_json_total"; "t_json_gauge"; "t_json_ns" ]
        | _ -> false
      in
      let exported =
        match Metrics.to_json () with
        | Json.List ms -> Json.to_string (Json.List (List.filter ours ms))
        | _ -> Alcotest.fail "to_json is not an array"
      in
      checks "json exposition"
        "[{\"name\":\"t_json_total\",\"type\":\"counter\",\"labels\":{\"dir\":\"up\"},\
         \"value\":3},\
         {\"name\":\"t_json_gauge\",\"type\":\"gauge\",\"labels\":{},\"value\":2.5},\
         {\"name\":\"t_json_ns\",\"type\":\"histogram\",\"labels\":{},\
         \"buckets\":[{\"le\":10,\"count\":1},{\"le\":100,\"count\":1},\
         {\"le\":\"+Inf\",\"count\":1}],\"sum\":5055,\"count\":3}]"
        exported)

(* === trace ring ============================================================== *)

(* A hand-cranked clock so trace tests control every timestamp. *)
let with_ring cap f =
  let saved_cap = Trace.capacity () in
  let t = ref 0 in
  Trace.set_clock (fun () -> !t);
  Trace.set_capacity cap;
  with_obs (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Trace.set_capacity saved_cap;
          Trace.set_clock (fun () -> 0))
        (fun () -> f t))

let test_ring_eviction () =
  with_ring 4 (fun t ->
      for i = 0 to 5 do
        t := i * 1000;
        Trace.instant ~cat:"test" (Printf.sprintf "e%d" i)
      done;
      checki "recorded counts evicted events too" 6 (Trace.recorded ());
      checki "two fell off the front" 2 (Trace.dropped ());
      Alcotest.(check (list string))
        "survivors are the newest, oldest first"
        [ "e2"; "e3"; "e4"; "e5" ]
        (List.map (fun ev -> ev.Trace.ev_name) (Trace.events ())))

let test_spans_and_summary () =
  with_ring 64 (fun t ->
      t := 1_000;
      Trace.with_span ~cat:"c" "work" (fun () -> t := 3_000);
      Trace.complete ~cat:"c" ~start_ns:5_000 ~end_ns:9_000 "work";
      (match Trace.mean_duration_us ~cat:"c" ~name:"work" with
      | Some m -> checkf "mean over both spans, in us" 3.0 m
      | None -> Alcotest.fail "span not recorded");
      checkb "absent span yields None" true
        (Trace.mean_duration_us ~cat:"c" ~name:"nope" = None);
      let summary = Trace.span_summary () in
      (match List.assoc_opt "c:work" summary with
      | Some s -> checki "summary count" 2 s.Smapp_stats.Summary.count
      | None -> Alcotest.fail "no summary row");
      let table = Trace.summary_table () in
      checkb "table mentions the span" true
        (contains ~sub:"c:work" table))

let test_chrome_golden () =
  with_ring 64 (fun t ->
      t := 4_000;
      Trace.complete ~cat:"c" ~start_ns:1_000 "s";
      t := 5_000;
      Trace.instant ~args:[ ("k", "v") ] ~cat:"c" "i1";
      let expected =
        "{\"traceEvents\":[\
         {\"name\":\"s\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":1,\
         \"dur\":3,\"args\":{}},\
         {\"name\":\"i1\",\"cat\":\"c\",\"ph\":\"i\",\"ts\":5,\"pid\":1,\"tid\":1,\
         \"s\":\"g\",\"args\":{\"k\":\"v\"}}\
         ],\"displayTimeUnit\":\"ms\"}"
      in
      checks "trace_event JSON" expected (Trace.export_chrome ()))

let test_timeline_render () =
  with_ring 64 (fun t ->
      t := 0;
      Trace.complete ~cat:"c" ~start_ns:0 ~end_ns:1_000_000 "span";
      t := 500_000;
      Trace.instant ~cat:"c" "tick";
      let art = Trace.timeline ~width:20 () in
      checkb "span track drawn" true (contains ~sub:"c:span" art);
      checkb "span bar drawn" true (contains ~sub:"====" art);
      checkb "instant tick drawn" true (contains ~sub:"|" art))

let test_disabled_records_nothing () =
  with_ring 8 (fun t ->
      Atomic.set Scope.enabled false;
      t := 1_000;
      Trace.instant ~cat:"test" "invisible";
      Trace.complete ~cat:"test" ~start_ns:0 "also-invisible";
      let ran = ref false in
      Trace.with_span ~cat:"test" "still-runs" (fun () -> ran := true);
      checkb "with_span runs the thunk when disabled" true !ran;
      checki "nothing recorded" 0 (Trace.recorded ());
      Atomic.set Scope.enabled true)

(* === determinism ============================================================= *)

(* The acceptance property behind the overhead budget: instrumentation only
   reads simulation state, so the same seeded run must produce bit-identical
   results with tracing+metrics off and on. *)
let test_instrumentation_is_inert () =
  let run () =
    E.Fig3.run ~seed:7 ~requests:20 ~file_bytes:(32 * 1024)
      ~variant:E.Fig3.Userspace ()
  in
  let saved = Atomic.get Scope.enabled in
  Atomic.set Scope.enabled false;
  let plain = run () in
  Atomic.set Scope.enabled saved;
  let traced = Scope.recording run in
  checki "same completions" plain.E.Fig3.requests_completed
    traced.E.Fig3.requests_completed;
  Alcotest.(check (list (float 0.0)))
    "bit-identical join delays with tracing on"
    plain.E.Fig3.delays traced.E.Fig3.delays;
  checkb "and the traced run actually recorded something" true
    (Trace.recorded () > 0);
  Scope.clear ()

let () =
  Alcotest.run "smapp_obs"
    [
      ( "scope",
        [
          Alcotest.test_case "one switch" `Quick test_one_switch;
          Alcotest.test_case "with_scope isolates all three" `Quick
            test_with_scope_isolates_all_three;
          Alcotest.test_case "recording" `Quick test_recording;
          Alcotest.test_case "an untraced scope builds no ring" `Quick
            test_untraced_scope_builds_no_ring;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "handle identity" `Quick test_counter_identity;
          Alcotest.test_case "disabled updates are no-ops" `Quick test_disabled_is_noop;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "observe allocates nothing" `Quick test_observe_allocates_nothing;
          Alcotest.test_case "clear keeps registrations" `Quick
            test_clear_keeps_registrations;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json golden" `Quick test_json_golden;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "spans and summary" `Quick test_spans_and_summary;
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "timeline render" `Quick test_timeline_render;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tracing does not perturb the sim" `Quick
            test_instrumentation_is_inert;
        ] );
    ]
