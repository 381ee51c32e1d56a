(* Tests for Smapp_par's sweeps: lanes lifecycle as a sweep sees it,
   ordered deterministic merge, exception propagation, nested-map
   rejection, per-job scope isolation, and the property the experiment
   sweeps lean on — a pooled [Sweep.map] agrees with [List.map] on every
   input. *)

module Lanes = Smapp_par.Lanes
module Sweep = Smapp_par.Sweep
module Metrics = Smapp_obs.Metrics
module Trace = Smapp_obs.Trace
module Crypto = Smapp_mptcp.Crypto

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_ints = Alcotest.check (Alcotest.list Alcotest.int)

let with_lanes domains f =
  let lanes = Lanes.create ~domains in
  Fun.protect ~finally:(fun () -> Lanes.shutdown lanes) (fun () -> f lanes)

(* === lifecycle =============================================================== *)

let test_create () =
  with_lanes 3 (fun lanes ->
      checki "domains" 3 (Lanes.domains lanes);
      checkb "fresh lanes are live" false (Lanes.is_shut_down lanes));
  Alcotest.check_raises "domains must be >= 1"
    (Invalid_argument "Smapp_par.Lanes.create: domains must be >= 1") (fun () ->
      ignore (Lanes.create ~domains:0))

let test_shutdown () =
  let lanes = Lanes.create ~domains:2 in
  Lanes.shutdown lanes;
  checkb "shut down" true (Lanes.is_shut_down lanes);
  Lanes.shutdown lanes;
  (* idempotent *)
  checkb "still shut down" true (Lanes.is_shut_down lanes);
  Alcotest.check_raises "sweep after shutdown raises"
    (Invalid_argument "Smapp_par.Lanes.run: pool is shut down") (fun () ->
      ignore (Sweep.map ~pool:lanes (fun x -> x) [ 1; 2; 3 ]))

(* === ordered merge =========================================================== *)

let test_ordered_merge () =
  with_lanes 4 (fun lanes ->
      let xs = List.init 37 (fun i -> i) in
      check_ints "results in submission order" (List.map (fun i -> i * i) xs)
        (Sweep.map ~pool:lanes (fun i -> i * i) xs);
      check_ints "empty input" [] (Sweep.map ~pool:lanes (fun i -> i) []);
      check_ints "fewer jobs than lanes" [ 10 ]
        (Sweep.map ~pool:lanes (fun i -> i * 10) [ 1 ]))

let test_single_domain_pool () =
  (* one lane degenerates to the caller walking the list — still ordered *)
  with_lanes 1 (fun lanes ->
      check_ints "single lane" [ 2; 4; 6 ]
        (Sweep.map ~pool:lanes (fun i -> 2 * i) [ 1; 2; 3 ]))

(* === exception propagation =================================================== *)

exception Boom of int

let boom i = raise (Boom i) [@@inline never]

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_exception_propagation () =
  let saved = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace saved) @@ fun () ->
  with_lanes 4 (fun lanes ->
      let failing bad =
        Sweep.map ~pool:lanes
          (fun i -> if List.mem i bad then boom i else i)
          (List.init 12 (fun i -> i))
      in
      (* jobs 3 and 9 both fail, on lanes 3 and 1: the lowest submission
         index must win, deterministically, not the lowest lane *)
      (match failing [ 3; 9 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> checki "first failure by submission index" 3 i);
      (* the winner keeps the backtrace of its raise site, not the re-raise
         after the barrier (job 4 runs on the caller's lane, the domain
         whose backtrace recording this test switched on) *)
      (match failing [ 4; 9 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
          checki "lowest failure" 4 i;
          checkb "backtrace reaches the raise site" true (has_sub ~sub:"boom" bt));
      (* the lanes survive a failed sweep *)
      check_ints "lanes usable after failure" [ 0; 1 ]
        (Sweep.map ~pool:lanes (fun i -> i) [ 0; 1 ]))

let test_nested_map_rejected () =
  with_lanes 2 (fun lanes ->
      match
        Sweep.map ~pool:lanes
          (fun i -> Sweep.map ~pool:lanes (fun x -> x) [ i ])
          [ 1; 2; 3; 4 ]
      with
      | _ -> Alcotest.fail "expected nested map to be rejected"
      | exception Invalid_argument msg ->
          checkb "nested rejection message" true
            (msg = "Smapp_par.Sweep.map: nested parallel map"));
  (* the rejection flag is per job: a later top-level sweep still runs *)
  with_lanes 2 (fun lanes ->
      check_ints "top-level sweep after rejection" [ 1; 2 ]
        (Sweep.map ~pool:lanes (fun x -> x) [ 1; 2 ]))

(* === per-job context: a fresh observability scope ============================= *)

let test_ctx_isolates_obs () =
  let saved = Atomic.get Metrics.enabled in
  Atomic.set Metrics.enabled true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Metrics.enabled saved)
    (fun () ->
      let c = Metrics.counter "t_par_ctx_total" in
      Metrics.incr c;
      let inside =
        Metrics.Scope.with_scope (Metrics.Scope.create ()) (fun () ->
            (* fresh scope, as [Sweep.map] gives each pooled job: the
               counter reads 0 here, and increments stay behind when the
               scope is discarded *)
            let before = Metrics.value c in
            Metrics.add c 100;
            (before, Metrics.value c))
      in
      checkb "scope starts clean" true (fst inside = 0);
      checkb "scope sees its own writes" true (snd inside = 100);
      checki "caller scope untouched" 1 (Metrics.value c))

let test_sweep_matches_list_map () =
  with_lanes 3 (fun lanes ->
      let f i = (i, i * 7) in
      let xs = List.init 23 (fun i -> i) in
      checkb "Sweep.map ?pool:None is List.map" true (Sweep.map f xs = List.map f xs);
      checkb "pooled sweep agrees" true (Sweep.map ~pool:lanes f xs = List.map f xs))

(* Each domain hashes on its own SHA-1 scratch: two lanes deriving tokens
   and join HMACs, and checking each HMAC, at the same time read what one
   domain reads alone. *)
let test_handshake_crypto_per_domain () =
  let hashes lane =
    List.init 2_000 (fun i ->
        let key = Int64.of_int ((lane * 1_000_003) + i) in
        let local_nonce = Int64.of_int i and remote_nonce = Int64.of_int lane in
        let mac =
          Crypto.join_hmac ~local_key:key ~remote_key:(Int64.lognot key) ~local_nonce
            ~remote_nonce
        in
        ( Crypto.token key,
          mac,
          Crypto.join_hmac_matches mac ~local_key:key ~remote_key:(Int64.lognot key)
            ~local_nonce ~remote_nonce ))
  in
  let sequential = List.map hashes [ 0; 1 ] in
  checkb "every HMAC checks" true
    (List.for_all (List.for_all (fun (_, _, ok) -> ok)) sequential);
  with_lanes 2 (fun lanes ->
      checkb "two domains hash as one does" true
        (Sweep.map ~pool:lanes hashes [ 0; 1 ] = sequential))

(* === property: pooled Sweep.map = List.map ================================== *)

let prop_map_agrees =
  QCheck.Test.make ~count:200 ~name:"Sweep.map on lanes agrees with List.map"
    QCheck.(pair (int_range 1 6) (small_list int))
    (fun (domains, xs) ->
      let f x = (2 * x) + 1 in
      with_lanes domains (fun lanes -> Sweep.map ~pool:lanes f xs = List.map f xs))

let () =
  Alcotest.run "smapp_par"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "map",
        [
          Alcotest.test_case "ordered merge" `Quick test_ordered_merge;
          Alcotest.test_case "single domain" `Quick test_single_domain_pool;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested map rejected" `Quick test_nested_map_rejected;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "scope isolation" `Quick test_ctx_isolates_obs;
          Alcotest.test_case "sweep = list map" `Quick test_sweep_matches_list_map;
          Alcotest.test_case "handshake crypto on two domains" `Quick
            test_handshake_crypto_per_domain;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_map_agrees ] );
    ]
