(* smapp bench: every figure through the runner its subcommand uses, plus
   what only the bench does — the ablation sweeps and BENCH.json. Its
   output is deterministic: the same scale prints the same text and writes
   the same BENCH.json at any -j, which CI checks. The simulator's timing
   of record is perfbench (BENCHMARK.json), not this file.

   Scale: quick shrinks the multi-run experiments for a fast smoke pass;
   the default finishes in a few minutes; full uses paper-scale parameters
   everywhere (100 MB files, 1000 requests). *)

module E = Smapp_experiments
module Stats = Smapp_stats

type scale = Quick | Default | Full

let pick scale ~q ~d ~f = match scale with Quick -> q | Default -> d | Full -> f
let subbanner title = Printf.printf "\n--- %s ---\n" title

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
    ( name,
      List.concat (Run.with_pool jobs (fun pool -> Smapp_par.Sweep.map ?pool job seeds)) )
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
    match Run.fig3 ~jobs ~requests ~stress:Run.fig3_stress with
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
      ( "dataplane_invariants_ok",
        if List.for_all E.Chaos.dataplane_invariants_ok grid then 1.0 else 0.0 );
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
  ]

(* Run every section, then write BENCH.json. *)
let run scale jobs =
  let scale_name = pick scale ~q:"quick" ~d:"default" ~f:"full" in
  Printf.printf "SMAPP benchmark harness (%s scale)\n" scale_name;
  let results =
    List.map
      (fun (name, section) ->
        Printf.printf "\n=== %s ===\n" name;
        (name, section scale jobs))
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
                  (fun (name, ms) ->
                    Obj
                      [
                        ("name", String name);
                        ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) ms));
                      ])
                  results) );
         ]));
  Printf.printf "\nwrote BENCH.json\n"
