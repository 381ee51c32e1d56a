(* Tests for Smapp_obs.Prof: the self-time/self-allocation tree invariants,
   per-event-class dispatch accounting through the engine brackets, GC
   instants on the trace timeline, the no-op-when-disabled discipline,
   deterministic allocation deltas for a fixed scenario, per-domain scope
   isolation under Smapp_par, and the shape of the JSON report. *)

module Prof = Smapp_obs.Prof
module Trace = Smapp_obs.Trace
module Json = Smapp_stats.Json
open Smapp_sim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let with_prof f =
  let saved = Atomic.get Prof.enabled in
  Atomic.set Prof.enabled true;
  Fun.protect
    ~finally:(fun () ->
      Prof.reset ();
      Atomic.set Prof.enabled saved)
    (fun () ->
      Prof.reset ();
      f ())

let rec find_frame label = function
  | [] -> None
  | f :: rest ->
      if f.Prof.f_label = label then Some f
      else (
        match find_frame label f.Prof.f_children with
        | Some f -> Some f
        | None -> find_frame label rest)

(* === the self-time tree ====================================================== *)

let test_self_time_tree () =
  with_prof (fun () ->
      (* outer{ inner inner } outer{ } at top level, twice nested once not *)
      Prof.with_frame "outer" (fun () ->
          Prof.with_frame "inner" (fun () -> Sys.opaque_identity (ignore [ 1; 2; 3 ]));
          Prof.with_frame "inner" (fun () -> ()));
      Prof.with_frame "outer" (fun () -> ());
      let r = Prof.report () in
      checki "one top-level label" 1 (List.length r.Prof.p_frames);
      let outer = Option.get (find_frame "outer" r.Prof.p_frames) in
      let inner = Option.get (find_frame "inner" r.Prof.p_frames) in
      checki "outer count" 2 outer.Prof.f_count;
      checki "inner count" 2 inner.Prof.f_count;
      checkb "inner nests under outer" true
        (List.exists (fun c -> c.Prof.f_label = "inner") outer.Prof.f_children);
      (* the reconciliation invariant: self summed over a subtree equals the
         subtree root's total, and self never exceeds total *)
      let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
      checkb "self-sum reconciles with total (ns)" true
        (close (Prof.sum_self_ns outer) outer.Prof.f_total_ns);
      checkb "self-sum reconciles with total (bytes)" true
        (close (Prof.sum_self_bytes outer) outer.Prof.f_total_bytes);
      checkb "self <= total" true (outer.Prof.f_self_ns <= outer.Prof.f_total_ns +. 1e-6);
      checkb "child time is real" true (inner.Prof.f_total_ns >= 0.0))

let test_self_time_bounded_by_wall () =
  with_prof (fun () ->
      (* same clock arithmetic as the profiler (scale before subtracting),
         so rounding cannot flip the containment into a spurious failure *)
      let t0 = Unix.gettimeofday () *. 1e9 in
      Prof.with_frame "work" (fun () ->
          Prof.with_frame "child" (fun () ->
              ignore (Sys.opaque_identity (Array.init 10_000 (fun i -> i)))));
      let wall_ns = (Unix.gettimeofday () *. 1e9) -. t0 in
      let r = Prof.report () in
      let self_sum =
        List.fold_left (fun acc f -> acc +. Prof.sum_self_ns f) 0.0 r.Prof.p_frames
      in
      checkb "self-time sums <= elapsed wall time" true (self_sum <= wall_ns);
      checkb "some time was attributed" true (self_sum > 0.0))

(* === event classes through the engine ======================================== *)

let test_event_classes () =
  with_prof (fun () ->
      let e = Engine.create () in
      Engine.schedule e (Time.add Time.zero (Time.span_s 1)) (fun () -> ());
      Engine.schedule e
        (Time.add Time.zero (Time.span_s 2))
        (fun () -> Prof.mark Prof.Link_delivery);
      Engine.schedule e
        (Time.add Time.zero (Time.span_s 3))
        (fun () ->
          (* most specific mark wins: netlink crossing reaching a controller *)
          Prof.mark Prof.Netlink;
          Prof.mark Prof.Controller);
      Engine.run e;
      Engine.retire e;
      let r = Prof.report () in
      checki "three dispatches" 3 r.Prof.p_events;
      let events cls =
        let c = List.find (fun c -> c.Prof.c_class = cls) r.Prof.p_classes in
        c.Prof.c_events
      in
      checki "unmarked counts as timer" 1 (events Prof.Timer);
      checki "marked link delivery" 1 (events Prof.Link_delivery);
      checki "last mark wins" 1 (events Prof.Controller);
      checki "overridden mark not counted" 0 (events Prof.Netlink))

let test_gc_instants_on_timeline () =
  with_prof (fun () ->
      let saved = Atomic.get Trace.enabled in
      Atomic.set Trace.enabled true;
      Trace.clear ();
      Fun.protect
        ~finally:(fun () ->
          Trace.clear ();
          Atomic.set Trace.enabled saved)
        (fun () ->
          let e = Engine.create () in
          Engine.schedule e (Time.add Time.zero (Time.span_s 1)) (fun () ->
              Gc.minor () (* a forced collection inside a dispatch *));
          Engine.run e;
          Engine.retire e;
          let r = Prof.report () in
          let minor =
            List.fold_left (fun acc c -> acc + c.Prof.c_minor_gcs) 0 r.Prof.p_classes
          in
          checkb "dispatch saw a minor collection" true (minor >= 1);
          checkb "gc instant on the trace timeline" true
            (List.exists
               (fun ev ->
                 ev.Trace.ev_name = "minor-gc"
                 && ev.Trace.ev_cat = "gc"
                 && ev.Trace.ev_kind = Trace.Instant)
               (Trace.events ()))))

(* === no-op when disabled ===================================================== *)

let test_disabled_is_noop () =
  let saved = Atomic.get Prof.enabled in
  Atomic.set Prof.enabled false;
  Fun.protect
    ~finally:(fun () -> Atomic.set Prof.enabled saved)
    (fun () ->
      Prof.reset ();
      Prof.enter "ghost";
      Prof.exit_frame ();
      Prof.with_frame "ghost2" (fun () -> ());
      Prof.enter_class Prof.Controller "ghost3";
      Prof.exit_frame ();
      Prof.mark Prof.Netlink;
      let e = Engine.create () in
      Engine.schedule e (Time.add Time.zero (Time.span_s 1)) (fun () -> ());
      Engine.run e;
      Engine.retire e;
      let r = Prof.report () in
      checki "no frames recorded" 0 (List.length r.Prof.p_frames);
      checki "no dispatches recorded" 0 r.Prof.p_events;
      checkb "no class touched" true
        (List.for_all (fun c -> c.Prof.c_events = 0) r.Prof.p_classes))

(* === determinism ============================================================= *)

(* A fixed scenario allocates the same bytes on every run: the engine is
   deterministic and [Gc.minor_words]/[Gc.counters] deltas measure program
   allocation, not GC scheduling. This is what lets a bytes-per-event
   figure carry a fixed budget, like the 1100 B/event one below. *)
let test_deterministic_alloc () =
  let scenario () =
    with_prof (fun () ->
        let e = Engine.create ~seed:7 () in
        for i = 1 to 200 do
          Engine.schedule e
            (Time.add Time.zero (Time.span_ms i))
            (fun () ->
              Prof.mark Prof.Link_delivery;
              ignore (Sys.opaque_identity (List.init (1 + (i mod 7)) (fun j -> j))))
        done;
        Engine.run e;
        Engine.retire e;
        let r = Prof.report () in
        List.map (fun c -> (c.Prof.c_events, c.Prof.c_bytes)) r.Prof.p_classes)
  in
  let a = scenario () and b = scenario () in
  Alcotest.(check (list (pair int (float 1e-9)))) "alloc deltas identical" a b

(* === per-domain scope isolation under Smapp_par ============================== *)

let test_scope_isolation () =
  with_prof (fun () ->
      Prof.with_frame "main-domain" (fun () -> ());
      let pool = Smapp_par.Lanes.create ~domains:2 in
      let reports =
        Fun.protect
          ~finally:(fun () -> Smapp_par.Lanes.shutdown pool)
          (fun () ->
            (* each job profiles inside the Ctx capsule Sweep gives it *)
            Smapp_par.Sweep.map ~pool
              (fun k ->
                for _ = 1 to k do
                  Prof.with_frame (Printf.sprintf "job-%d" k) (fun () -> ())
                done;
                Prof.report ())
              [ 1; 2 ])
      in
      List.iter2
        (fun k r ->
          checki
            (Printf.sprintf "job %d sees only its own frames" k)
            1
            (List.length r.Prof.p_frames);
          let f = Option.get (find_frame (Printf.sprintf "job-%d" k) r.Prof.p_frames) in
          checki "count landed in the right lane's scope" k f.Prof.f_count;
          checkb "no cross-talk from main" true
            (find_frame "main-domain" r.Prof.p_frames = None))
        [ 1; 2 ] reports;
      (* and the main domain's scope was untouched by the jobs *)
      let main = Prof.report () in
      checki "main scope has only its own frame" 1 (List.length main.Prof.p_frames);
      checkb "main frame survives" true
        (find_frame "main-domain" main.Prof.p_frames <> None))

(* === the datapath memory wall ================================================ *)

(* The 500-conn workload [smapp prof] profiles by default, on the
   arena'd datapath. Two pins: the profiler's books must stay honest
   (the same 5% reconciliation bound the CLI's [smapp prof] gates on —
   pooling must not hide or double-count allocation), and link delivery
   must stay inside the per-event self-allocation budget the hot-path
   work bought. Either pin failing means a change quietly re-introduced
   per-event garbage or broke attribution. *)
let test_arena_books_and_budget () =
  let module Workload = Smapp_workload.Workload in
  with_prof (fun () ->
      let config =
        {
          Workload.default_config with
          Workload.conns = 500;
          arrival_rate = 500.0;
          flow_dist = Workload.Fixed 200_000;
          shards = 1;
        }
      in
      let a0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let result = Prof.with_frame "run" (fun () -> Workload.run config) in
      let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      let alloc_bytes = Gc.allocated_bytes () -. a0 in
      let r = Prof.report () in
      checki "profiler saw every dispatch" result.Workload.engine_events
        r.Prof.p_events;
      let rel a b = if b = 0.0 then Float.abs a else Float.abs (a -. b) /. b in
      let self_ns =
        List.fold_left (fun acc f -> acc +. Prof.sum_self_ns f) 0.0 r.Prof.p_frames
      in
      checkb "frame time reconciles with wall within 5%" true
        (rel (Prof.total_ns r) wall_ns <= 0.05);
      checkb "frame bytes reconcile with Gc.allocated_bytes within 5%" true
        (rel (Prof.total_bytes r) alloc_bytes <= 0.05);
      checkb "self-sum reconciles with total within 5%" true
        (rel self_ns (Prof.total_ns r) <= 0.05);
      let ld =
        List.find (fun c -> c.Prof.c_class = Prof.Link_delivery) r.Prof.p_classes
      in
      checkb "link delivery dispatched" true (ld.Prof.c_events > 0);
      let bytes_per_event = ld.Prof.c_bytes /. float_of_int ld.Prof.c_events in
      if bytes_per_event > 1100.0 then
        Alcotest.failf
          "link-delivery self-allocation %.1f B/event blew the 1100 B budget"
          bytes_per_event)

(* === report plumbing ========================================================= *)

let test_report_json_shape () =
  with_prof (fun () ->
      Prof.with_frame "a" (fun () -> Prof.with_frame "b" (fun () -> ()));
      match Prof.report_json (Prof.report ()) with
      | Json.Obj fields ->
          checkb "frames present" true (List.mem_assoc "frames" fields);
          checkb "classes present" true (List.mem_assoc "classes" fields)
      | _ -> Alcotest.fail "report JSON is not an object")

let () =
  Alcotest.run "prof"
    [
      ( "frames",
        [
          Alcotest.test_case "self-time tree" `Quick test_self_time_tree;
          Alcotest.test_case "self <= wall" `Quick test_self_time_bounded_by_wall;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "event classes" `Quick test_event_classes;
          Alcotest.test_case "gc instants" `Quick test_gc_instants_on_timeline;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "deterministic alloc" `Quick test_deterministic_alloc;
          Alcotest.test_case "scope isolation" `Quick test_scope_isolation;
          Alcotest.test_case "arena books and allocation budget" `Slow
            test_arena_books_and_budget;
          Alcotest.test_case "report json" `Quick test_report_json_shape;
        ] );
    ]
