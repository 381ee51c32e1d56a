(* Tests for the sharded deterministic engine: the qcheck byte-identity
   property (any shard count yields the sequential digest) and its chaos
   counterpart (regionfail gives the same result sharded), window-edge
   micro-tests (events exactly on a boundary, canonical rank ordering,
   horizon violations, cancellation across barriers, overflow-tier
   timestamps), one trace across shards, and the Lanes barrier pool that
   drives windows in parallel. *)

open Smapp_sim
module Topology = Smapp_netsim.Topology
module Workload = Smapp_workload.Workload
module Lanes = Smapp_par.Lanes
module Chaos = Smapp_experiments.Chaos

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let check_ints = Alcotest.check (Alcotest.list Alcotest.int)
let ms n = Time.add Time.zero (Time.span_ms n)

(* === the byte-identity property ============================================== *)

(* Small but structurally varied workloads: every controller kind, mixed
   flow distributions, host counts that exercise uneven partitions. *)
let gen_config =
  let open QCheck.Gen in
  let* conns = int_range 4 16 in
  let* clients = int_range 2 5 in
  let* servers = int_range 1 3 in
  let* paths = int_range 1 3 in
  let* controller =
    (* backup needs a path to fail over to *)
    if paths >= 2 then oneofl [ `None; `Fullmesh; `Backup ]
    else oneofl [ `None; `Fullmesh ]
  in
  let* flow_dist =
    oneof
      [
        map (fun b -> Workload.Fixed (20_000 + (b * 1000))) (int_range 0 30);
        return (Workload.Pareto { xmin = 10_000; alpha = 1.5; cap = 300_000 });
        return (Workload.Exponential { mean = 40_000 });
      ]
  in
  let* seed = int_range 1 10_000 in
  return
    {
      Workload.default_config with
      conns;
      arrival_rate = 50.0;
      flow_dist;
      controller;
      clients;
      servers;
      paths;
      seed;
    }

let arb_config =
  QCheck.make gen_config ~print:(fun c ->
      Printf.sprintf "conns=%d clients=%d servers=%d paths=%d controller=%s seed=%d"
        c.Workload.conns c.Workload.clients c.Workload.servers c.Workload.paths
        (match c.Workload.controller with
        | `None -> "none"
        | `Fullmesh -> "fullmesh"
        | `Backup -> "backup")
        c.Workload.seed)

let prop_shards_identical =
  QCheck.Test.make ~count:12 ~name:"any shard count yields the sequential digest"
    arb_config (fun config ->
      let base = Workload.run { config with shards = 1 } in
      let base_digest = Workload.digest base in
      List.for_all
        (fun shards ->
          let r = Workload.run { config with shards } in
          Workload.digest r = base_digest && r.Workload.fcts = base.Workload.fcts)
        [ 2; 4; 8 ])

(* The regionfail chaos scenario, with its NIC failures and backup
   failovers live, on 4 shards as on one. *)
let test_regionfail_shards_identical () =
  let run shards = Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 ~shards () in
  checkb "regionfail: 4 shards = 1 shard" true (run 4 = run 1)

(* === window-edge micro-tests ================================================= *)

(* A 2-shard group with 1 ms cross edges both ways: windows are 1 ms wide,
   so an event at exactly t = 1 ms sits on the first window's far edge. *)
let edge_group () =
  let g = Shard.create ~shards:2 () in
  Shard.register_cross g ~src:0 ~dst:1 (fun () -> Time.span_ms 1);
  Shard.register_cross g ~src:1 ~dst:0 (fun () -> Time.span_ms 1);
  g

let test_mail_on_window_boundary () =
  let g = edge_group () in
  let e0 = Shard.engine g 0 and e1 = Shard.engine g 1 in
  let order = ref [] in
  let hit tag () = order := tag :: !order in
  (* shard 1 has a pre-scheduled local (unranked) event at exactly 1 ms;
     shard 0 posts mail for the same instant — the window edge — during
     the first window. The unranked local event must run first (default
     rank sorts before any explicit rank), then the mails by rank, not by
     posting order. *)
  ignore (Engine.at e1 (ms 1) (hit 1));
  ignore
    (Engine.at e0 Time.zero (fun () ->
         Shard.post g ~src:0 ~dst:1 ~time:(ms 1) ~r1:0 ~r2:0 ~r3:9 (hit 3);
         Shard.post g ~src:0 ~dst:1 ~time:(ms 1) ~r1:0 ~r2:0 ~r3:5 (hit 2)));
  (* something to keep shard 1's queue alive so T includes it *)
  ignore (Engine.at e1 Time.zero (hit 0));
  Shard.run g;
  check_ints "boundary order: local unranked, then mails by rank" [ 0; 1; 2; 3 ]
    (List.rev !order);
  (* the four hits plus the posting callback itself *)
  checki "all events ran" 5 (Shard.events_executed g)

let test_equal_rank_mail_ties () =
  (* three mails for one instant at one rank, from shards 0 and 1 into
     shard 2. The lanes run shard 1 before shard 0, so the wall-clock
     posting order is not the source order: source index, then posting
     order, must break the tie. *)
  let g = Shard.create ~shards:3 () in
  Shard.register_cross g ~src:0 ~dst:2 (fun () -> Time.span_ms 1);
  Shard.register_cross g ~src:1 ~dst:2 (fun () -> Time.span_ms 1);
  let order = ref [] in
  let post src tag =
    Shard.post g ~src ~dst:2 ~time:(ms 2) ~r1:0 ~r2:0 ~r3:5 (fun () ->
        order := tag :: !order)
  in
  ignore (Engine.at (Shard.engine g 0) Time.zero (fun () -> post 0 1));
  ignore
    (Engine.at (Shard.engine g 1) Time.zero (fun () ->
         post 1 2;
         post 1 3));
  Shard.run g ~lanes:(fun f ->
      f 2;
      f 1;
      f 0);
  check_ints "source 0, then source 1 in posting order" [ 1; 2; 3 ] (List.rev !order)

let test_post_inside_horizon_rejected () =
  let g = edge_group () in
  let e0 = Shard.engine g 0 in
  ignore (Engine.at (Shard.engine g 1) Time.zero (fun () -> ()));
  ignore
    (Engine.at e0 Time.zero (fun () ->
         (* time = now is inside the current window: a lookahead violation *)
         Shard.post g ~src:0 ~dst:1 ~time:Time.zero ~r1:0 ~r2:0 ~r3:1 (fun () -> ())));
  (match Shard.run g with
  | () -> Alcotest.fail "post inside the horizon must raise Bug"
  | exception Bug.Bug _ -> ());
  (* posting with no window open (horizon unset) is also a violation *)
  let g2 = edge_group () in
  (match Shard.post g2 ~src:0 ~dst:1 ~time:(ms 5) ~r1:0 ~r2:0 ~r3:1 (fun () -> ()) with
  | () -> Alcotest.fail "post outside a window must raise Bug"
  | exception Bug.Bug _ -> ())

let test_cancel_across_barrier () =
  let g = edge_group () in
  let e0 = Shard.engine g 0 and e1 = Shard.engine g 1 in
  let fired = ref false in
  (* armed during the first window, far in the future *)
  let doomed = ref None in
  ignore
    (Engine.at e0 Time.zero (fun () ->
         doomed := Some (Engine.at e0 (ms 50) (fun () -> fired := true));
         (* ping-pong mail so several windows elapse before the cancel *)
         Shard.post g ~src:0 ~dst:1 ~time:(ms 1) ~r1:0 ~r2:0 ~r3:1 (fun () ->
             Shard.post g ~src:1 ~dst:0 ~time:(ms 2) ~r1:0 ~r2:0 ~r3:1 (fun () ->
                 (* third window: cancel the timer armed two barriers ago *)
                 Engine.cancel (Option.get !doomed)))));
  ignore (Engine.at e1 Time.zero (fun () -> ()));
  Shard.run g;
  checkb "cancelled timer never fired" false !fired;
  checkb "timer reports inactive" false (Engine.timer_active (Option.get !doomed));
  (* the group still drained: clocks are past the cancelled deadline's
     window start, not stuck waiting on a dead event *)
  checkb "group drained" true Time.(Shard.last_event_time g >= ms 2)

let test_overflow_tier_across_windows () =
  (* Timestamps >= 2^40 ns (~18.3 min) once took a separate overflow
     tier of the event queue. Drive a 2-shard group there through window
     jumps and check that rank ordering holds that far out. *)
  let g = edge_group () in
  let e0 = Shard.engine g 0 and e1 = Shard.engine g 1 in
  let far = Time.of_ns ((1 lsl 40) + 12_345) in
  let order = ref [] in
  let hit tag () = order := tag :: !order in
  ignore (Engine.at e0 far (hit 2));
  Engine.schedule_ranked e0 far ~r1:0 ~r2:0 ~r3:7 (hit 4);
  Engine.schedule_ranked e0 far ~r1:0 ~r2:0 ~r3:3 (hit 3);
  ignore (Engine.at e0 far (hit 2));
  (* mail posted in the first window for a same-instant overflow delivery *)
  ignore
    (Engine.at e1 Time.zero (fun () ->
         Shard.post g ~src:1 ~dst:0 ~time:far ~r1:0 ~r2:0 ~r3:5 (hit 9)));
  ignore (Engine.at e0 Time.zero (hit 1));
  Shard.run g;
  check_ints "overflow tier: unranked first (fifo), then by rank"
    [ 1; 2; 2; 3; 9; 4 ]
    (List.rev !order);
  checkb "clock reached the overflow timestamp" true
    (Time.equal (Shard.last_event_time g) far)

let test_free_run_without_cross_edges () =
  (* no registered edges: shards are causally decoupled and free-run *)
  let g = Shard.create ~shards:3 () in
  let count = ref 0 in
  for s = 0 to 2 do
    ignore
      (Engine.at (Shard.engine g s)
         (ms (10 * (s + 1)))
         (fun () -> incr count))
  done;
  Shard.run g;
  checki "all shards drained" 3 !count;
  checki "events counted across members" 3 (Shard.events_executed g)

(* === one trace across shards ================================================== *)

(* With observability on, the windows of a 2-shard run record into the
   caller's scope, each event stamped by the clock of the shard that
   dispatched it ([Engine.run] installs it): the events of the 1-shard run,
   in another order. *)
let test_sharded_trace_matches_one_shard () =
  let config =
    {
      Workload.default_config with
      conns = 40;
      arrival_rate = 200.;
      flow_dist = Workload.Fixed 20_000;
      seed = 3;
    }
  in
  let traced shards =
    Smapp_obs.Scope.recording (fun () -> ignore (Workload.run { config with shards }));
    List.sort compare
      (List.map
         (fun (ev : Smapp_obs.Trace.event) ->
           Printf.sprintf "%d %d %s:%s" ev.ev_ts_ns ev.ev_dur_ns ev.ev_cat ev.ev_name)
         (Smapp_obs.Trace.events ()))
  in
  let one = traced 1 in
  let two = traced 2 in
  checkb (Printf.sprintf "one shard records events (%d)" (List.length one)) true (one <> []);
  Alcotest.(check (list string)) "two shards record the same events" one two

(* === lanes =================================================================== *)

let test_lanes_each_shard_once () =
  let lanes = Lanes.create ~domains:3 in
  Fun.protect ~finally:(fun () -> Lanes.shutdown lanes) @@ fun () ->
  checki "domains" 3 (Lanes.domains lanes);
  let shards = 7 in
  let counts = Array.make shards 0 in
  Lanes.run lanes ~shards (fun s -> counts.(s) <- counts.(s) + 1);
  check_ints "every shard ran exactly once" (List.init shards (fun _ -> 1))
    (Array.to_list counts);
  (* rounds are reusable *)
  Lanes.run lanes ~shards:2 (fun s -> counts.(s) <- counts.(s) + 10);
  checki "shard 0 reran" 11 counts.(0);
  checki "shard 1 reran" 11 counts.(1)

exception Boom of int

let test_lanes_exception_lowest_shard () =
  let lanes = Lanes.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Lanes.shutdown lanes) @@ fun () ->
  (match Lanes.run lanes ~shards:8 (fun s -> if s >= 3 then raise (Boom s)) with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom s -> checki "lowest failing shard wins" 3 s);
  (* the pool survives a failed round *)
  let ok = ref 0 in
  Lanes.run lanes ~shards:4 (fun _ -> incr ok);
  checki "pool still runs" 4 !ok

let test_lanes_shutdown () =
  let lanes = Lanes.create ~domains:2 in
  Lanes.shutdown lanes;
  checkb "shut down" true (Lanes.is_shut_down lanes);
  Lanes.shutdown lanes;
  Alcotest.check_raises "run after shutdown raises"
    (Invalid_argument "Smapp_par.Lanes.run: pool is shut down") (fun () ->
      Lanes.run lanes ~shards:1 (fun _ -> ()))

let test_parallel_lanes_identical () =
  (* the end-to-end composition: a 4-shard workload driven by a 4-domain
     barrier pool is byte-identical to the sequential single-shard run *)
  let config =
    {
      Workload.default_config with
      conns = 24;
      arrival_rate = 60.0;
      flow_dist = Workload.Fixed 60_000;
      controller = `Fullmesh;
      clients = 4;
      servers = 2;
      paths = 2;
      shards = 4;
    }
  in
  let seq = Workload.run { config with shards = 1 } in
  let lanes = Lanes.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Lanes.shutdown lanes) @@ fun () ->
  let par = Workload.run ~lanes config in
  checks "parallel lanes reproduce the sequential digest" (Workload.digest seq)
    (Workload.digest par)

(* === runner ================================================================== *)

let () =
  Alcotest.run "shard"
    [
      ( "identity",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_shards_identical;
          Alcotest.test_case "regionfail chaos" `Quick test_regionfail_shards_identical;
        ] );
      ( "windows",
        [
          Alcotest.test_case "mail on window boundary" `Quick
            test_mail_on_window_boundary;
          Alcotest.test_case "equal-rank mail ties" `Quick test_equal_rank_mail_ties;
          Alcotest.test_case "post inside horizon rejected" `Quick
            test_post_inside_horizon_rejected;
          Alcotest.test_case "cancel across barrier" `Quick
            test_cancel_across_barrier;
          Alcotest.test_case "overflow tier across windows" `Quick
            test_overflow_tier_across_windows;
          Alcotest.test_case "free run without cross edges" `Quick
            test_free_run_without_cross_edges;
        ] );
      ( "trace clock",
        [
          Alcotest.test_case "sharded run traces like one shard" `Quick
            test_sharded_trace_matches_one_shard;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "each shard once" `Quick test_lanes_each_shard_once;
          Alcotest.test_case "exception from lowest shard" `Quick
            test_lanes_exception_lowest_shard;
          Alcotest.test_case "shutdown" `Quick test_lanes_shutdown;
          Alcotest.test_case "parallel lanes identical" `Quick
            test_parallel_lanes_identical;
        ] );
    ]
