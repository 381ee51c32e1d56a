(* smapp bench: every figure through the runner its subcommand uses, plus
   what only the bench does — the ablation sweeps, the shard / par / check /
   obs sections and BENCH.json — then the budgets CI holds the run to. The
   simulator's timing of record is perfbench (BENCHMARK.json), not this
   file.

   Scale: quick shrinks the multi-run experiments for a fast smoke pass;
   the default finishes in a few minutes; full uses paper-scale parameters
   everywhere (100 MB files, 1000 requests). *)

module E = Smapp_experiments
module Stats = Smapp_stats
module Obs = Smapp_obs
module W = Smapp_workload.Workload

type scale = Quick | Default | Full

let pick scale ~q ~d ~f = match scale with Quick -> q | Default -> d | Full -> f
let subbanner title = Printf.printf "\n--- %s ---\n" title
let flag b = if b then 1.0 else 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The workload fabric the throughput sections drive: [conns] fixed-size
   flows arriving at [conns]/s. *)
let fabric ?(bytes = 200_000) conns =
  { W.default_config with W.conns; arrival_rate = float_of_int conns; flow_dist = W.Fixed bytes }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Each section takes the scale and the -j domain count, prints, and
   returns its BENCH.json metrics. *)

let fig2a _ _ =
  let r = Run.fig2a () in
  subbanner "ablation: RTO threshold sweep (when does the switch happen?)";
  List.iter
    (fun thr ->
      let r = E.Fig2a.run ~rto_threshold:thr () in
      Printf.printf "  threshold %.2fs -> failover at %s\n" thr
        (match r.E.Fig2a.failover_at with Some t -> Printf.sprintf "%.3fs" t | None -> "never"))
    [ 0.5; 1.0; 2.0 ];
  match r.E.Fig2a.failover_at with Some t -> [ ("failover_s", t) ] | None -> []

let backoff _ _ =
  Run.backoff ~loss:1.0 ();
  Run.backoff ~loss:0.30 ~horizon:600.0 ();
  []

let fig2b scale jobs =
  Run.fig2b ~jobs ~runs:(pick scale ~q:2 ~d:5 ~f:10) ~blocks:(pick scale ~q:15 ~d:30 ~f:30);
  []

(* Lowest-RTT vs round-robin on the Fig 2b stream with both subflows open
   and 20% loss on path 0. *)
let scheduler_ablation scale jobs =
  let seeds = E.Harness.seeds (pick scale ~q:2 ~d:3 ~f:5) in
  let blocks = 20 in
  let run_sched name make_sched =
    let job seed =
      let open Smapp_netsim in
      let open Smapp_mptcp in
      let pair = E.Harness.make_pair ~seed () in
      Topology.set_duplex_loss (E.Harness.path pair 0).Topology.cable 0.20;
      let receiver = ref None in
      Endpoint.listen pair.E.Harness.server_ep ~port:80 (fun conn ->
          receiver := Some (Smapp_apps.Stream_app.receiver conn ~blocks ()));
      let conn =
        Endpoint.connect pair.E.Harness.client_ep ~src:(E.Harness.client_addr pair 0)
          ~dst:(E.Harness.server_endpoint pair 0 80) ()
      in
      Connection.set_scheduler conn (make_sched ());
      Connection.subscribe conn (function
        | Connection.Established ->
            ignore
              (Connection.add_subflow conn ~src:(E.Harness.client_addr pair 1)
                 ~dst:(E.Harness.server_endpoint pair 1 80) ())
        | _ -> ());
      ignore (Smapp_apps.Stream_app.sender conn ~blocks ());
      E.Harness.run_seconds pair.E.Harness.engine (float_of_int blocks +. 30.0);
      match !receiver with Some r -> Smapp_apps.Stream_app.block_delays r | None -> []
    in
    (name, List.concat (Run.with_pool jobs (fun pool -> E.Harness.sweep ?pool job seeds)))
  in
  Run.print_cdf_table "ablation: scheduler choice on the Fig 2b workload, block delays (s)"
    [
      run_sched "lowest-rtt" (fun () -> Smapp_mptcp.Scheduler.lowest_rtt);
      run_sched "round-robin" (fun () -> Smapp_mptcp.Scheduler.round_robin ());
    ];
  []

let fig2c scale jobs =
  Run.fig2c ~jobs ~runs:(pick scale ~q:4 ~d:12 ~f:20) ~mb:(pick scale ~q:15 ~d:40 ~f:100)
  |> List.filter_map (fun r ->
         match r.E.Fig2c.completion_times with
         | [] -> None
         | samples ->
             Some
               ( E.Fig2c.variant_name r.E.Fig2c.variant ^ "_median_s",
                 Stats.Cdf.quantile (Stats.Cdf.of_samples samples) 0.5 ))

let fig3 scale jobs =
  let requests = pick scale ~q:150 ~d:600 ~f:1000 in
  let extra =
    match Run.fig3 ~jobs ~requests ~stress:1.5 with
    | kernel :: user :: _ -> Run.extra_us ~kernel user
    | _ -> assert false (* the sweep returns one result per spec *)
  in
  let b = E.Fig3.traced_breakdown ~requests:(min requests 300) () in
  let ratio = Run.print_breakdown b in
  subbanner "ablation: netlink channel latency sweep";
  let crossings = [ 6; 12; 24; 48 ] in
  List.iter2
    (fun us r ->
      Printf.printf "  crossing ~%2d us -> mean CAPA-JOIN delay %.3f ms\n" us
        (Run.mean r.E.Fig3.delays *. 1000.))
    crossings
    (Run.with_pool jobs (fun pool ->
         E.Fig3.sweep ?pool
           (List.map
              (fun us -> (E.Fig3.Userspace, float_of_int us /. 12.0, min requests 200))
              crossings)));
  [
    ("userspace_extra_us", extra);
    ("netlink_up_us", b.E.Fig3.b_up_us);
    ("netlink_down_us", b.E.Fig3.b_down_us);
    ("kernel_pm_us", b.E.Fig3.b_kernel_pm_us);
  ]
  @ Option.to_list (Option.map (fun d -> ("decision_rtt_us", d)) b.E.Fig3.b_decision_rtt_us)
  @ [
      ("breakdown_model_us", E.Fig3.breakdown_model_us b); ("breakdown_vs_measured_ratio", ratio);
    ]

let fullmesh _ _ =
  Run.fullmesh ();
  []

let chaos scale jobs =
  Run.chaos_control ~jobs ~grid:true
    ~seeds:(E.Harness.seeds (pick scale ~q:1 ~d:3 ~f:5))
    ~drops:(if scale = Quick then [ 0.05 ] else [ 0.0; 0.02; 0.05; 0.10 ])
    ~seed:42 ~drop:0.05 ();
  print_newline ();
  let grid =
    Run.chaos_dataplane ~jobs ~grid:true ~seed:42 ~shards:1
      [ `Mobile; `Degrade; `Dualfade; `Regionfail ]
  in
  List.concat_map
    (fun name ->
      match List.filter (fun r -> r.E.Chaos.dp_scenario = name) grid with
      | [] -> []
      | rs ->
          [
            ( name ^ "_failover_latency_s",
              List.fold_left (fun m r -> Float.max m r.E.Chaos.dp_max_stall_s) 0.0 rs );
            ( name ^ "_goodput_mbps",
              List.fold_left (fun s r -> s +. r.E.Chaos.dp_goodput_bps) 0.0 rs
              /. (1e6 *. float_of_int (List.length rs)) );
          ])
    [ "mobile"; "degrade"; "dualfade"; "regionfail" ]
  @ [
      ("dataplane_cells", float_of_int (List.length grid));
      ("dataplane_invariants_ok", flag (List.for_all E.Chaos.dataplane_invariants_ok grid));
    ]

let workload scale jobs =
  let conns = pick scale ~q:500 ~d:2000 ~f:4000 in
  let r = List.hd (Run.workload ~jobs ~runs:1 (fabric conns)) in
  let fct q = Stats.Cdf.quantile (Stats.Cdf.of_samples r.W.fcts) q in
  [
    ("conns", float_of_int conns);
    ("completed", float_of_int r.W.completed);
    ("peak_concurrent", float_of_int r.W.peak_concurrent);
    ("engine_events", float_of_int r.W.engine_events);
    ("events_per_sec", r.W.events_per_sec);
  ]
  @ if r.W.fcts = [] then [] else [ ("fct_p50_s", fct 0.5); ("fct_p90_s", fct 0.9) ]

(* The workload above at shards 1/2/4 under the conservative-window
   executor, windows across parallel lanes when the host has the cores.
   Identity is the acceptance gate — every sharded digest must equal the
   sequential one bit-for-bit; the wall columns show what the windows cost
   (barriers every lookahead) or buy (lanes on real cores). The regionfail
   comparison extends the same gate to a chaos scenario with live faults. *)
let shard scale _ =
  let conns = pick scale ~q:500 ~d:2000 ~f:4000 in
  let available = Domain.recommended_domain_count () in
  Printf.printf
    "%d conns on the workload fabric at shards 1/2/4; lanes use min(shards, %d) \
     domains. Every digest must match shards=1 exactly.\n\n"
    conns available;
  let base = W.run (fabric conns) in
  let base_digest = W.digest base in
  Printf.printf "shards 1: %6.2f s wall, %8.0f events/s  (digest %s)\n" base.W.wall_s
    base.W.events_per_sec base_digest;
  let sharded =
    List.map
      (fun shards ->
        let r = Run.run_sharded ~domains:available { (fabric conns) with W.shards } in
        let identical = W.digest r = base_digest in
        Printf.printf "shards %d: %6.2f s wall, %8.0f events/s  -> %s\n" shards r.W.wall_s
          r.W.events_per_sec
          (if identical then "identical" else "DIVERGED");
        (shards, r, identical))
      [ 2; 4 ]
  in
  let rf1 = E.Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 () in
  let rf4 = E.Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 ~shards:4 () in
  let rf_identical = rf1 = rf4 in
  Printf.printf "regionfail chaos, shards 4 vs 1: %s\n"
    (if rf_identical then "identical" else "DIVERGED");
  [
    ("conns", float_of_int conns);
    ("domains_available", float_of_int available);
    ("shard1_wall_s", base.W.wall_s);
    ("shard1_events_per_sec", base.W.events_per_sec);
  ]
  @ List.concat_map
      (fun (n, r, identical) ->
        [
          (Printf.sprintf "shard%d_wall_s" n, r.W.wall_s);
          (Printf.sprintf "shard%d_events_per_sec" n, r.W.events_per_sec);
          (Printf.sprintf "shard%d_identical" n, flag identical);
        ])
      sharded
  @ [
      ("regionfail_shard_identical", flag rf_identical);
      ("identical", flag (rf_identical && List.for_all (fun (_, _, i) -> i) sharded));
    ]

(* The same fig2c refresh sweep, sequentially and across 4-domain lanes:
   the results must be structurally equal (the sweep is deterministic and
   ordered), and the wall-time ratio is the measured speedup. On a
   single-core host the lanes still run correctly but the domains
   time-slice one core, so the honest speedup there is ~1x or below. *)
let par scale jobs =
  let runs = pick scale ~q:4 ~d:8 ~f:12 in
  let mb = pick scale ~q:4 ~d:15 ~f:40 in
  let seeds = E.Harness.seeds runs in
  let domains = max 4 jobs in
  let available = Domain.recommended_domain_count () in
  Printf.printf "fig2c refresh sweep: %d seeds x %d MB, sequential vs %d domains (host offers %d)\n"
    runs mb domains available;
  let sweep pool () =
    E.Fig2c.run ?pool ~seeds ~file_bytes:(mb * 1_000_000) ~variant:E.Fig2c.Refresh ()
  in
  let seq_r, seq_s = timed (sweep None) in
  let par_r, par_s = Run.with_lanes domains (fun pool -> timed (sweep pool)) in
  let identical = seq_r = par_r in
  let speedup = ratio seq_s par_s in
  Printf.printf "sequential: %.2f s wall\n%d domains:  %.2f s wall -> speedup x%.2f\nresults %s\n"
    seq_s domains par_s speedup
    (if identical then "byte-identical (ordered merge, isolated scopes)"
     else "DIFFER — determinism broken!");
  [
    ("seq_wall_s", seq_s);
    ("par_wall_s", par_s);
    ("speedup", speedup);
    ("domains", float_of_int domains);
    ("domains_available", float_of_int available);
    ("identical", flag identical);
  ]

(* The FSM instrumentation in Tcb/Connection is a load-and-branch when the
   hooks are off; this section holds it to that by running the same
   workload with checks off and with the full conformance checker
   installed. *)
let check scale _ =
  let run () = W.run (fabric ~bytes:100_000 (pick scale ~q:100 ~d:400 ~f:1000)) in
  let off = run () in
  Smapp_check.Fsm.install ();
  let on_ = Fun.protect ~finally:Smapp_check.Fsm.uninstall run in
  let overhead = ratio off.W.events_per_sec on_.W.events_per_sec in
  Printf.printf "hooks off: %.0f events/s; hooks on: %.0f events/s (x%.3f)\n"
    off.W.events_per_sec on_.W.events_per_sec overhead;
  Printf.printf "conformance validated %d transitions\n" (Smapp_check.Fsm.transitions_seen ());
  [
    ("events_per_sec_hooks_off", off.W.events_per_sec);
    ("events_per_sec_hooks_on", on_.W.events_per_sec);
    ("overhead_ratio", overhead);
  ]

(* Smapp_obs follows the same load-and-branch discipline: every counter bump
   and span emission starts with a check of an atomic flag. The section
   runs the workload with observability off, then with metrics and tracing
   on; their ratio is what switching it on costs, and its budget is a
   tripwire for a recording path that turns expensive. *)
let obs scale _ =
  let run () = W.run (fabric ~bytes:100_000 (pick scale ~q:100 ~d:400 ~f:1000)) in
  let baseline = run () in
  let enabled = Run.with_obs run in
  let enabled_ratio = ratio baseline.W.events_per_sec enabled.W.events_per_sec in
  Printf.printf "baseline: %.0f events/s; obs enabled: %.0f events/s (x%.3f)\n"
    baseline.W.events_per_sec enabled.W.events_per_sec enabled_ratio;
  Printf.printf "trace ring: %d events recorded, %d evicted\n" (Obs.Trace.recorded ())
    (Obs.Trace.dropped ());
  Run.write_trace "trace_sample.json";
  [
    ("events_per_sec_baseline", baseline.W.events_per_sec);
    ("events_per_sec_enabled", enabled.W.events_per_sec);
    ("enabled_overhead_ratio", enabled_ratio);
    ("trace_events_recorded", float_of_int (Obs.Trace.recorded ()));
  ]

let sections =
  [
    ("fig2a", fig2a);
    ("backoff", backoff);
    ("fig2b", fig2b);
    ("scheduler_ablation", scheduler_ablation);
    ("fig2c", fig2c);
    ("fig3", fig3);
    ("fullmesh", fullmesh);
    ("chaos", chaos);
    ("workload", workload);
    ("shard", shard);
    ("par", par);
    ("check", check);
    ("obs", obs);
  ]

(* The budgets CI holds a bench run to: (section, metric, bound, check).
   A metric the run did not produce is nan and misses every budget. *)
let budgets get =
  let at_most b x = x <= b and exactly_one x = x = 1.0 in
  [
    ("par", "identical", "= 1", exactly_one);
    ( "par",
      "speedup",
      ">= 1.2 when domains_available >= domains",
      fun x -> x >= 1.2 || get "par" "domains_available" < get "par" "domains" );
    ("shard", "identical", "= 1", exactly_one);
    ("shard", "regionfail_shard_identical", "= 1", exactly_one);
    ("workload", "events_per_sec", ">= 200000", fun x -> x >= 200_000.0);
    ("obs", "enabled_overhead_ratio", "<= 3.0", at_most 3.0);
    ("fig3", "breakdown_vs_measured_ratio", "in [0.8, 1.2]", fun x -> x >= 0.8 && x <= 1.2);
    ("chaos", "dataplane_invariants_ok", "= 1", exactly_one);
  ]

(* Run every section, write BENCH.json, then exit 1 naming every budget the
   run missed. *)
let run scale jobs =
  let scale_name = pick scale ~q:"quick" ~d:"default" ~f:"full" in
  Printf.printf "SMAPP benchmark harness (%s scale)\n" scale_name;
  let results =
    List.map
      (fun (name, section) ->
        Printf.printf "\n=== %s ===\n" name;
        let metrics, wall = timed (fun () -> section scale jobs) in
        (name, wall, metrics))
      sections
  in
  Stats.Json.(
    to_file "BENCH.json"
      (Obj
         [
           ("scale", String scale_name);
           ( "sections",
             List
               (List.map
                  (fun (name, wall, ms) ->
                    Obj
                      [
                        ("name", String name);
                        ("wall_s", Float wall);
                        ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) ms));
                      ])
                  results) );
         ]));
  Printf.printf "\nwrote BENCH.json\n\nbudgets:\n";
  let get sec key =
    List.find_map (fun (n, _, ms) -> if n = sec then List.assoc_opt key ms else None) results
    |> Option.value ~default:nan
  in
  let missed =
    List.filter
      (fun (sec, key, bound, ok) ->
        let v = get sec key in
        Printf.printf "  %-6s %s.%s = %g (%s)\n" (if ok v then "ok" else "MISSED") sec key v bound;
        not (ok v))
      (budgets get)
  in
  if missed <> [] then begin
    Printf.printf "smapp bench: missed %s\n"
      (String.concat ", " (List.map (fun (sec, key, _, _) -> sec ^ "." ^ key) missed));
    exit 1
  end
