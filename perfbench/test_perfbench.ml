(* The benchmark's own checks: its fabric scenarios are the workload that
   [smapp workload] runs, and a traced run accounts for its wall time
   without changing what it simulates. *)

module Workload = Smapp_workload.Workload
module Scenario = Perfbench.Scenario

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* A named fabric workload at 80 connections, arriving over the same span
   of simulated time as the full size. *)
let shrunk name =
  match Scenario.shape name ~seed:7 with
  | Scenario.Fabric c ->
      {
        c with
        Workload.conns = 80;
        arrival_rate = c.Workload.arrival_rate *. 80.0 /. float_of_int c.Workload.conns;
      }
  | Scenario.Ecmp _ -> Alcotest.fail (name ^ " is not a fabric workload")

let small_ecmp =
  match Scenario.shape "lossy_ecmp" ~seed:7 with
  | Scenario.Ecmp e -> { e with Scenario.e_transfers = 2; e_bytes = 400_000 }
  | Scenario.Fabric _ -> Alcotest.fail "lossy_ecmp is not an ECMP workload"

let digest (o : Scenario.outcome) = Workload.digest o.Scenario.result

let all_complete (o : Scenario.outcome) =
  o.Scenario.receivers_ok
  && o.Scenario.result.Workload.completed = o.Scenario.result.Workload.launched

let test_same_as_workload name () =
  let config = shrunk name in
  let o = Scenario.run ~traced:false (Scenario.Fabric config) in
  checks "digest of Workload.run" (Workload.digest (Workload.run config)) (digest o);
  checkb "every transfer completes with exactly its bytes" true (all_complete o)

let test_sharded_same_as_sequential () =
  let seq = Scenario.run ~traced:false (Scenario.Fabric (shrunk "bulk_fabric")) in
  let sharded = Scenario.run ~traced:false (Scenario.Fabric (shrunk "bulk_sharded")) in
  checks "bulk_sharded digest" (digest seq) (digest sharded)

(* The traced run's ledger: layer self times, the dispatch time no layer
   claims and the engine loop remainder add up to the run's wall time
   within 5% (+1 ms), and tracing leaves the simulated outputs alone. *)
let test_traced shape () =
  let plain = Scenario.run ~traced:false shape in
  let traced = Scenario.run ~traced:true shape in
  checks "tracing leaves the digest unchanged" (digest plain) (digest traced);
  match traced.Scenario.ledger with
  | None -> Alcotest.fail "a traced run has a ledger"
  | Some l ->
      let show = Printf.sprintf "wall %.6f prof %.6f dispatch %.6f framed %.6f" in
      checkb
        (show l.Scenario.wall_s l.Scenario.prof_wall_s l.Scenario.dispatch_s l.Scenario.framed_s)
        true (Scenario.reconciles l);
      checkb "some time is framed" true (l.Scenario.framed_s > 0.0);
      checkb "every per-layer metric is finite" true
        (List.for_all (fun (_, _, v) -> Float.is_finite v) traced.Scenario.layers)

let () =
  Alcotest.run "perfbench"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bulk_fabric = Workload.run" `Quick
            (test_same_as_workload "bulk_fabric");
          Alcotest.test_case "conn_churn = Workload.run" `Quick
            (test_same_as_workload "conn_churn");
          Alcotest.test_case "bulk_sharded = bulk_fabric" `Quick test_sharded_same_as_sequential;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "bulk_fabric traced" `Quick
            (test_traced (Scenario.Fabric (shrunk "bulk_fabric")));
          Alcotest.test_case "bulk_sharded traced" `Quick
            (test_traced (Scenario.Fabric (shrunk "bulk_sharded")));
          Alcotest.test_case "lossy_ecmp traced" `Quick (test_traced (Scenario.Ecmp small_ecmp));
        ] );
    ]
