(* One repetition of one benchmark workload, printed as one JSON line. A
   fresh process per repetition keeps the major heap's peak and the GC
   state its own; run.py starts it once per repetition.

     bench.exe --workload NAME --seed N [--trace]
     bench.exe --reference D seconds of the fixed host-speed workload on D domains
     bench.exe --env         the runtime's settings, for the result's stamp *)

module Json = Smapp_stats.Json
module Workload = Smapp_workload.Workload
module Scenario = Perfbench.Scenario

let word_bytes = float_of_int (Sys.word_size / 8)

(* Words allocated so far by every domain that has run, and the major
   heap's peak: [Gc.minor] first flushes each domain's counts into the
   global statistics [Gc.quick_stat] reads. *)
let heap_stats () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.top_heap_words)

let quantile q = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let i = int_of_float (q *. float_of_int (Array.length a)) in
      a.(min (Array.length a - 1) i)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let repetition name ~seed ~traced =
  let shape = Scenario.shape name ~seed in
  let words0, _ = heap_stats () in
  let o = Scenario.run ~traced shape in
  let words1, top_heap_words = heap_stats () in
  let r = o.Scenario.result in
  let ledger =
    match o.Scenario.ledger with
    | None -> Json.Null
    | Some l ->
        Json.Obj
          [
            ("wall_s", Json.Float l.Scenario.wall_s);
            ("prof_wall_s", Json.Float l.Scenario.prof_wall_s);
            ("dispatch_s", Json.Float l.Scenario.dispatch_s);
            ("framed_s", Json.Float l.Scenario.framed_s);
            ("reconciled", Json.Bool (Scenario.reconciles l));
          ]
  in
  Json.Obj
    [
      ("workload", Json.String name);
      ("seed", Json.Int seed);
      ("traced", Json.Bool traced);
      ("digest", Json.String (Workload.digest r));
      ("launched", Json.Int r.Workload.launched);
      ("completed", Json.Int r.Workload.completed);
      ("receivers_ok", Json.Bool o.Scenario.receivers_ok);
      ("setup_s", Json.Float o.Scenario.setup_s);
      ("run_s", Json.Float o.Scenario.run_s);
      ("alloc_mb", Json.Float ((words1 -. words0) *. word_bytes /. 1e6));
      ("peak_heap_mb", Json.Float (float_of_int top_heap_words *. word_bytes /. 1e6));
      ("events", Json.Int r.Workload.engine_events);
      ("sim_s", Json.Float r.Workload.sim_duration_s);
      ("fct_p50_s", Json.Float (quantile 0.5 r.Workload.fcts));
      ("fct_p99_s", Json.Float (quantile 0.99 r.Workload.fcts));
      ("goodput_mbps", Json.Float (mean r.Workload.goodputs /. 1e6));
      ("ledger", ledger);
      ( "layers",
        Json.Obj
          (List.map
             (fun (n, unit, v) ->
               (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             o.Scenario.layers) );
    ]

let environment () =
  let g = Gc.get () in
  Json.Obj
    [
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ( "gc",
        Json.Obj
          [
            ("minor_heap_words", Json.Int g.Gc.minor_heap_size);
            ("space_overhead", Json.Int g.Gc.space_overhead);
            ("major_heap_increment", Json.Int g.Gc.major_heap_increment);
            ("allocation_policy", Json.Int g.Gc.allocation_policy);
          ] );
    ]

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false and env = ref false in
  let reference = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat ", " Scenario.workloads);
      ("--seed", Arg.Set_int seed, "N the workload seed");
      ("--trace", Arg.Set traced, " traced run: the per-layer split");
      ("--reference", Arg.Set_int reference, "D time the fixed host-speed workload on D domains");
      ("--env", Arg.Set env, " print the runtime's settings");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trace] | bench.exe --reference D | bench.exe --env";
  let json =
    if !env then environment ()
    else if !reference > 0 then
      Json.Obj [ ("reference_s", Json.Float (Perfbench.Reference.seconds ~domains:!reference)) ]
    else repetition !workload ~seed:!seed ~traced:!traced
  in
  print_endline (Json.to_string json)
