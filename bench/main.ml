(* The benchmark harness: regenerates every table and figure of the paper
   (paper-vs-measured, with the shape checks spelled out), runs the ablation
   sweeps called out in DESIGN.md, then a set of Bechamel microbenchmarks of
   the core data structures and the netlink codec.

   Scale: `--quick` shrinks the multi-run experiments for a fast smoke pass;
   the default finishes in a few minutes; `--full` uses paper-scale
   parameters everywhere (100 MB files, 1000 requests). *)

module E = Smapp_experiments
module Stats = Smapp_stats

let quick = Array.exists (( = ) "--quick") Sys.argv
let full = Array.exists (( = ) "--full") Sys.argv

(* -j N / --jobs N: run the experiment sweeps across N domains. Default 1:
   plain sequential, no pool, the historical behaviour. The sweeps are
   deterministic either way — a parallel run returns byte-identical
   results (the [par] section measures and checks exactly that). *)
let jobs =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then 1
    else if Sys.argv.(i) = "-j" || Sys.argv.(i) = "--jobs" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n when n >= 1 -> n
      | Some _ | None -> invalid_arg "bench: -j expects a positive domain count"
    else find (i + 1)
  in
  find 1

(* Lanes for one sweep, shut down when it returns: parked domains still
   take part in every stop-the-world minor collection, so lanes kept for
   the whole process would tax the sequential sections' timings. *)
let with_pool f =
  if jobs = 1 then f None
  else begin
    let pool = Smapp_par.Lanes.create ~domains:jobs in
    Fun.protect ~finally:(fun () -> Smapp_par.Lanes.shutdown pool) (fun () -> f (Some pool))
  end

(* --minor-heap WORDS[k|m]: applied via Gc.set before any section runs.
   Performance only — every digest and event count is byte-identical at
   any setting; the perf section's sweep point tracks the effect. *)
let () =
  let parse s =
    let len = String.length s in
    let mult, digits =
      if len = 0 then (1, s)
      else
        match s.[len - 1] with
        | 'k' | 'K' -> (1024, String.sub s 0 (len - 1))
        | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
        | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some n when n > 0 -> n * mult
    | Some _ | None -> invalid_arg "bench: --minor-heap expects WORDS (e.g. 512k, 8m)"
  in
  let rec find i =
    if i + 1 >= Array.length Sys.argv then ()
    else if Sys.argv.(i) = "--minor-heap" then
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = parse Sys.argv.(i + 1) }
    else find (i + 1)
  in
  find 1

let scale ~q ~d ~f = if quick then q else if full then f else d

(* --- machine-readable output (BENCH.json) ------------------------------- *)

let bench_sections : (string * float * (string * float) list) list ref = ref []
let current_metrics : (string * float) list ref = ref []

(* record a key metric of the currently running section *)
let metric name v = current_metrics := (name, v) :: !current_metrics

let section name f =
  current_metrics := [];
  let t0 = Unix.gettimeofday () in
  f ();
  bench_sections :=
    (name, Unix.gettimeofday () -. t0, List.rev !current_metrics) :: !bench_sections

let write_bench_json path =
  let open Stats.Json in
  to_file path
    (Obj
       [
         ( "scale",
           String (if quick then "quick" else if full then "full" else "default") );
         ( "sections",
           List
             (List.rev_map
                (fun (name, wall, ms) ->
                  Obj
                    [
                      ("name", String name);
                      ("wall_s", Float wall);
                      ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) ms));
                    ])
                !bench_sections) );
       ]);
  Printf.printf "\nwrote %s\n" path

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subbanner title = Printf.printf "\n--- %s ---\n" title

let quantiles = [ 0.25; 0.50; 0.75; 0.90 ]

let cdf_row name samples =
  match samples with
  | [] -> Printf.printf "%-24s (no samples)\n" name
  | _ ->
      let cdf = Stats.Cdf.of_samples samples in
      Printf.printf "%-24s" name;
      List.iter (fun q -> Printf.printf "  p%02.0f=%8.3f" (q *. 100.) (Stats.Cdf.quantile cdf q)) quantiles;
      Printf.printf "  n=%d\n" (Stats.Cdf.size cdf)

(* ---------------------------------------------------------------- fig 2a *)

let fig2a () =
  banner "Fig 2a — smart backup: seq-number trace and failover time";
  Printf.printf
    "paper: transfer starts on the primary; loss jumps to 30%% at t=1s; when\n\
     the RTO exceeds 1s the controller kills the primary and the transfer\n\
     continues on the backup path (their trace switches at ~2s).\n\n";
  let r = E.Fig2a.run () in
  (match r.E.Fig2a.failover_at with
  | Some t ->
      metric "failover_s" t;
      Printf.printf "measured: controller switched to the backup subflow at %.3f s\n" t
  | None -> Printf.printf "measured: NO failover (unexpected)\n");
  let last_master =
    match List.rev r.E.Fig2a.master.E.Fig2a.points with (t, _) :: _ -> t | [] -> 0.0
  in
  let first_backup =
    match r.E.Fig2a.backup.E.Fig2a.points with (t, _) :: _ -> t | [] -> nan
  in
  Printf.printf "last data on master: %.3f s; first data on backup: %.3f s\n" last_master
    first_backup;
  Printf.printf "bytes delivered in %.0f s horizon: %d\n" r.E.Fig2a.duration
    r.E.Fig2a.bytes_delivered;
  print_string
    (Stats.Ascii_plot.scatter ~width:70 ~height:14 ~x_label:"relative time (s)"
       ~y_label:"seq number (10^5 B)"
       [
         ("Master", r.E.Fig2a.master.E.Fig2a.points);
         ("Back up", r.E.Fig2a.backup.E.Fig2a.points);
       ]);
  subbanner "ablation: RTO threshold sweep (when does the switch happen?)";
  List.iter
    (fun thr ->
      let r = E.Fig2a.run ~rto_threshold:thr () in
      Printf.printf "  threshold %.2fs -> failover at %s\n" thr
        (match r.E.Fig2a.failover_at with
        | Some t -> Printf.sprintf "%.3fs" t
        | None -> "never"))
    [ 0.5; 1.0; 2.0 ]

(* -------------------------------------------------------------- backoff *)

let backoff () =
  banner "Section 4.2 text — binary backup semantics take minutes to fail over";
  Printf.printf
    "paper: with plain RFC 6824 backup flags, the primary keeps doubling its\n\
     RTO (15 doublings on Linux) and only dies after ~12 minutes.\n\n";
  let r = E.Backoff.run ~loss:1.0 () in
  (match r.E.Backoff.subflow_died_at with
  | Some t ->
      Printf.printf
        "measured (total loss): primary killed after %.0f s (%.1f min), %d RTO expirations, max RTO %.0f s\n"
        t (t /. 60.) r.E.Backoff.rto_expirations r.E.Backoff.max_rto_seen
  | None -> Printf.printf "measured: primary still alive at horizon\n");
  let r30 = E.Backoff.run ~loss:0.30 ~horizon:600.0 () in
  (match r30.E.Backoff.subflow_died_at with
  | Some t -> Printf.printf "measured (30%% loss): primary died at %.0f s\n" t
  | None ->
      Printf.printf
        "measured (30%% loss): primary NEVER dies within 10 min — occasional\n\
         successful retransmissions keep resetting the retry counter, so the\n\
         stock failover is even worse than the paper's 12 minutes\n");
  Printf.printf "vs. the Fig 2a controller which switches in ~2.4 s.\n"

(* ---------------------------------------------------------------- fig 2b *)

let fig2b () =
  banner "Fig 2b — CDF of 64 KB block completion times (smart streaming)";
  Printf.printf
    "paper: with the default full-mesh PM the CDF grows a multi-second tail\n\
     as loss rises; the smart-stream controller keeps the CDF tight for\n\
     10-40%% loss.\n\n";
  let runs = scale ~q:2 ~d:5 ~f:10 in
  let blocks = scale ~q:15 ~d:30 ~f:30 in
  let seeds = E.Harness.seeds runs in
  List.iter
    (fun loss ->
      let fm =
        with_pool (fun pool ->
            E.Fig2b.run ?pool ~seeds ~blocks ~loss ~variant:E.Fig2b.Default_fullmesh ())
      in
      cdf_row
        (Printf.sprintf "fullmesh %.0f%%" (loss *. 100.))
        fm.E.Fig2b.delays)
    [ 0.10; 0.20; 0.30; 0.40 ];
  List.iter
    (fun loss ->
      let sm =
        with_pool (fun pool ->
            E.Fig2b.run ?pool ~seeds ~blocks ~loss ~variant:E.Fig2b.Smart_stream ())
      in
      cdf_row
        (Printf.sprintf "smart-stream %.0f%%" (loss *. 100.))
        sm.E.Fig2b.delays)
    [ 0.10; 0.20; 0.30; 0.40 ];
  Printf.printf
    "\nshape check: fullmesh p90 grows with loss into seconds; smart-stream\n\
     p90 stays near the no-loss 0.11 s for every loss ratio (paper: 'almost\n\
     the same CDF for 10-40%%').\n"

(* ---------------------------------------------------------------- fig 2c *)

let fig2c () =
  banner "Fig 2c — 100 MB over 4 ECMP paths: refresh controller vs ndiffports";
  let mb = scale ~q:15 ~d:40 ~f:100 in
  let runs = scale ~q:4 ~d:12 ~f:20 in
  let file_bytes = mb * 1_000_000 in
  Printf.printf
    "paper (100 MB): ndiffports clusters at ~28/37/55 s for 4/3/2 paths used;\n\
     refresh converges to all 4 paths (best possible 27.8 s, single path 111.7 s).\n\
     this run: %d MB files, %d runs/variant; completion scales ~linearly in size\n\
     (multiply by %.1f to compare with the paper's absolute numbers).\n\n"
    mb runs
    (100.0 /. float_of_int mb);
  let seeds = E.Harness.seeds runs in
  let show variant =
    let r = with_pool (fun pool -> E.Fig2c.run ?pool ~seeds ~file_bytes ~variant ()) in
    let name = E.Fig2c.variant_name variant in
    (match r.E.Fig2c.completion_times with
    | [] -> ()
    | samples ->
        metric
          (name ^ "_median_s")
          (Stats.Cdf.quantile (Stats.Cdf.of_samples samples) 0.5));
    cdf_row name r.E.Fig2c.completion_times;
    Printf.printf "%-24s  paths used per run: %s\n" ""
      (String.concat "," (List.map string_of_int r.E.Fig2c.paths_used_final));
    r
  in
  let nd = show E.Fig2c.Ndiffports in
  let rf = show E.Fig2c.Refresh in
  Printf.printf "ideal on 4 paths at this size: %.1f s\n"
    (E.Fig2c.ideal_completion ~file_bytes ~paths:4 ~rate_bps:8e6);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  let avg_paths l = mean (List.map float_of_int l) in
  Printf.printf
    "shape check: refresh uses %.1f paths on average vs ndiffports' %.1f;\n\
     refresh's worst run beats ndiffports' worst (%.1f s vs %.1f s).\n"
    (avg_paths rf.E.Fig2c.paths_used_final)
    (avg_paths nd.E.Fig2c.paths_used_final)
    (List.fold_left Float.max 0. rf.E.Fig2c.completion_times)
    (List.fold_left Float.max 0. nd.E.Fig2c.completion_times)

(* ----------------------------------------------------------------- fig 3 *)

let fig3 () =
  banner "Fig 3 — CAPA-SYN to JOIN-SYN delay: kernel vs userspace path manager";
  let requests = scale ~q:150 ~d:600 ~f:1000 in
  Printf.printf
    "paper (1000 GETs of 512 KB): the userspace manager adds ~23 us on average,\n\
     and stays within +37 us under CPU stress. this run: %d GETs.\n\n" requests;
  let kernel, user, stressed =
    match
      with_pool (fun pool ->
          E.Fig3.sweep ?pool
            [
              (E.Fig3.Kernel, 1.0, requests);
              (E.Fig3.Userspace, 1.0, requests);
              (E.Fig3.Userspace, 1.5, requests);
            ])
    with
    | [ kernel; user; stressed ] -> (kernel, user, stressed)
    | _ -> assert false
  in
  let ms l = List.map (fun d -> d *. 1000.) l in
  cdf_row "kernel (ms)" (ms kernel.E.Fig3.delays);
  cdf_row "userspace (ms)" (ms user.E.Fig3.delays);
  cdf_row "userspace stress x1.5" (ms stressed.E.Fig3.delays);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  let base = mean kernel.E.Fig3.delays in
  metric "userspace_extra_us" ((mean user.E.Fig3.delays -. base) *. 1e6);
  Printf.printf
    "\nmeasured: userspace adds %.1f us on average (paper ~23 us); under CPU\n\
     stress the extra delay is %.1f us (paper: stays below 37 us).\n"
    ((mean user.E.Fig3.delays -. base) *. 1e6)
    ((mean stressed.E.Fig3.delays -. base) *. 1e6);
  subbanner "traced decomposition of the userspace gap";
  let b = E.Fig3.traced_breakdown ~requests:(min requests 300) () in
  let model = E.Fig3.breakdown_model_us b in
  Printf.printf
    "  netlink k->u %.2f us + u->k %.2f us - in-kernel reaction %.2f us\n\
    \  = %.2f us vs measured %.2f us (%.0f%%)\n"
    b.E.Fig3.b_up_us b.E.Fig3.b_down_us b.E.Fig3.b_kernel_pm_us model
    b.E.Fig3.b_extra_us
    (100. *. model /. b.E.Fig3.b_extra_us);
  metric "netlink_up_us" b.E.Fig3.b_up_us;
  metric "netlink_down_us" b.E.Fig3.b_down_us;
  metric "kernel_pm_us" b.E.Fig3.b_kernel_pm_us;
  (match b.E.Fig3.b_decision_rtt_us with
  | Some d -> metric "decision_rtt_us" d
  | None -> ());
  metric "breakdown_model_us" model;
  metric "breakdown_vs_measured_ratio"
    (if b.E.Fig3.b_extra_us = 0.0 then 0.0 else model /. b.E.Fig3.b_extra_us);
  subbanner "ablation: netlink channel latency sweep";
  let crossings = [ 6; 12; 24; 48 ] in
  List.iter2
    (fun us r ->
      let mean_ms = mean r.E.Fig3.delays *. 1000. in
      Printf.printf "  crossing ~%2d us -> mean CAPA-JOIN delay %.3f ms\n" us mean_ms)
    crossings
    (with_pool (fun pool ->
         E.Fig3.sweep ?pool
           (List.map
              (fun us -> (E.Fig3.Userspace, float_of_int us /. 12.0, min requests 200))
              crossings)))

(* ------------------------------------------------------------- fullmesh *)

let fullmesh () =
  banner "Section 4.1 — fullmesh controller keeps long-lived connections alive";
  Printf.printf
    "paper: the 800-line userspace fullmesh reimplementation maintains the\n\
     subflows under failures, with per-errno re-establishment timers.\n\n";
  let r = E.Fullmesh_recovery.run () in
  List.iter
    (fun c ->
      Printf.printf "  %7.1fs  %-28s subflows=%d\n" c.E.Fullmesh_recovery.at
        c.E.Fullmesh_recovery.label c.E.Fullmesh_recovery.subflows_alive)
    r.E.Fullmesh_recovery.checkpoints;
  Printf.printf
    "controller created %d subflows (1 mesh + %d recoveries); %d keepalives sent; %d subflows at end\n"
    r.E.Fullmesh_recovery.subflows_created_by_controller r.E.Fullmesh_recovery.reconnects
    r.E.Fullmesh_recovery.messages_sent r.E.Fullmesh_recovery.final_subflows

(* ------------------------------------------------------------------ chaos *)

let chaos () =
  banner "Robustness — control-plane fault injection (chaos harness)";
  Printf.printf
    "the Netlink channel drops/duplicates messages and the daemon crashes;\n\
     the controller's view must reconverge to true kernel state, and under\n\
     total daemon loss the in-kernel watchdog must take over.\n\n";
  let drops = if quick then [ 0.05 ] else [ 0.0; 0.02; 0.05; 0.10 ] in
  let seeds = E.Harness.seeds (scale ~q:1 ~d:3 ~f:5) in
  List.iter
    (fun r ->
      Printf.printf
        "  %-8s drop=%4.0f%% seed=%-3d converged=%-8s dup_subs=%d retries=%d resyncs=%d \
         gaps=%d ch_drops=%d\n"
        r.E.Chaos.controller (r.E.Chaos.drop *. 100.) r.E.Chaos.seed
        (match r.E.Chaos.converged_after_s with
        | Some s -> Printf.sprintf "%.3fs" s
        | None -> "NEVER")
        r.E.Chaos.duplicate_subflows r.E.Chaos.retries r.E.Chaos.resyncs
        r.E.Chaos.gaps_detected r.E.Chaos.dropped)
    (with_pool (fun pool -> E.Chaos.run_grid ?pool ~seeds ~drops ()));
  let w = E.Chaos.run_watchdog () in
  Printf.printf
    "  watchdog: fallback=%b (x%d) kernel_subflows=%d bytes %d -> %d (%s)\n"
    w.E.Chaos.w_fallback_active w.E.Chaos.w_fallbacks w.E.Chaos.w_kernel_subflows
    w.E.Chaos.w_bytes_at_loss w.E.Chaos.w_bytes_final
    (if w.E.Chaos.w_bytes_final > w.E.Chaos.w_bytes_at_loss then "alive" else "STALLED");

  subbanner "data-plane chaos: time-varying links, handover churn";
  Printf.printf
    "four scenarios x three seeds; every cell must deliver byte-exactly,\n\
     stay live within its stall bound while a path is up, and keep its\n\
     controller churn inside the configured caps.\n\n";
  let grid = with_pool (fun pool -> E.Chaos.run_dataplane_grid ?pool ()) in
  List.iter
    (fun r ->
      Printf.printf
        "  %-9s seed=%-5d %8d B %-5s handovers=%d failovers=%d stall=%.2fs/%.1fs \
         drops=%-4d goodput=%5.2f Mbit/s %s\n"
        r.E.Chaos.dp_scenario r.E.Chaos.dp_seed r.E.Chaos.dp_bytes_received
        (if r.E.Chaos.dp_byte_exact then "exact" else "SHORT")
        r.E.Chaos.dp_handovers r.E.Chaos.dp_failovers r.E.Chaos.dp_max_stall_s
        r.E.Chaos.dp_stall_bound_s r.E.Chaos.dp_link_drops
        (r.E.Chaos.dp_goodput_bps /. 1e6)
        (if E.Chaos.dataplane_invariants_ok r then "ok" else "VIOLATED"))
    grid;
  let by_scenario name =
    List.filter (fun r -> r.E.Chaos.dp_scenario = name) grid
  in
  List.iter
    (fun name ->
      match by_scenario name with
      | [] -> ()
      | rs ->
          metric
            (name ^ "_failover_latency_s")
            (List.fold_left (fun m r -> Float.max m r.E.Chaos.dp_max_stall_s) 0.0 rs);
          metric
            (name ^ "_goodput_mbps")
            (List.fold_left (fun s r -> s +. r.E.Chaos.dp_goodput_bps) 0.0 rs
            /. (1e6 *. float_of_int (List.length rs))))
    [ "mobile"; "degrade"; "dualfade"; "regionfail" ];
  metric "dataplane_cells" (float_of_int (List.length grid));
  metric "dataplane_invariants_ok"
    (if List.for_all E.Chaos.dataplane_invariants_ok grid then 1.0 else 0.0)

(* -------------------------------------------- scheduler ablation (2b) *)

let scheduler_ablation () =
  banner "Ablation — scheduler choice on the Fig 2b workload";
  let seeds = E.Harness.seeds (scale ~q:2 ~d:3 ~f:5) in
  let blocks = 20 in
  (* lowest-RTT vs round-robin with both subflows open, 20% loss on path 0 *)
  let run_sched name make_sched =
    let job seed =
      let open Smapp_netsim in
      let open Smapp_mptcp in
      let pair = E.Harness.make_pair ~seed () in
      let engine = pair.E.Harness.engine in
      Topology.set_duplex_loss (E.Harness.path pair 0).Topology.cable 0.20;
      let receiver = ref None in
      Endpoint.listen pair.E.Harness.server_ep ~port:80 (fun conn ->
          receiver := Some (Smapp_apps.Stream_app.receiver conn ~blocks ()));
      let conn =
        Endpoint.connect pair.E.Harness.client_ep
          ~src:(E.Harness.client_addr pair 0)
          ~dst:(E.Harness.server_endpoint pair 0 80)
          ()
      in
      Connection.set_scheduler conn (make_sched ());
      Connection.subscribe conn (function
        | Connection.Established ->
            ignore
              (Connection.add_subflow conn
                 ~src:(E.Harness.client_addr pair 1)
                 ~dst:(E.Harness.server_endpoint pair 1 80)
                 ())
        | _ -> ());
      ignore (Smapp_apps.Stream_app.sender conn ~blocks ());
      E.Harness.run_seconds engine (float_of_int blocks +. 30.0);
      match !receiver with
      | Some r -> Smapp_apps.Stream_app.block_delays r
      | None -> []
    in
    let delays = List.concat (with_pool (fun pool -> E.Harness.sweep ?pool job seeds)) in
    cdf_row name delays
  in
  run_sched "lowest-rtt" (fun () -> Smapp_mptcp.Scheduler.lowest_rtt);
  run_sched "round-robin" (fun () -> Smapp_mptcp.Scheduler.round_robin ())

(* ------------------------------------------------------------- workload *)

let workload () =
  banner "Scale-out workload — thousands of connections, per-connection controllers";
  let open Smapp_workload in
  let conns = scale ~q:500 ~d:2000 ~f:4000 in
  Printf.printf
    "%d MPTCP connections arrive open-loop at %d/s across 8 clients x 4\n\
     servers x 2 paths; every connection gets its own fullmesh controller\n\
     instance through the factory. The events-per-second figure is the\n\
     engine's scheduler throughput over the whole run.\n\n"
    conns conns;
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = float_of_int conns;
      flow_dist = Workload.Fixed 200_000;
    }
  in
  let r = Workload.run config in
  Printf.printf
    "completed %d/%d; peak concurrency %d; %d controller subflows; %d MB moved\n"
    r.Workload.completed r.Workload.launched r.Workload.peak_concurrent
    r.Workload.subflows_created
    (r.Workload.bytes_total / 1_000_000);
  Printf.printf "engine: %d events in %.2f s wall -> %.0f events/s\n"
    r.Workload.engine_events r.Workload.wall_s r.Workload.events_per_sec;
  cdf_row "flow completion (s)" r.Workload.fcts;
  metric "conns" (float_of_int conns);
  metric "completed" (float_of_int r.Workload.completed);
  metric "peak_concurrent" (float_of_int r.Workload.peak_concurrent);
  metric "engine_events" (float_of_int r.Workload.engine_events);
  metric "events_per_sec" r.Workload.events_per_sec;
  (match r.Workload.fcts with
  | [] -> ()
  | samples ->
      let cdf = Stats.Cdf.of_samples samples in
      metric "fct_p50_s" (Stats.Cdf.quantile cdf 0.5);
      metric "fct_p90_s" (Stats.Cdf.quantile cdf 0.9))

(* ------------------------------------------------------------ sharding *)

(* The same scenario on several engines: the workload above at shards
   1/2/4 under the conservative-window executor, windows across parallel
   lanes when the host has the cores. Identity is the acceptance gate —
   every sharded digest must equal the sequential one bit-for-bit; the
   wall columns show what the windows cost (barriers every lookahead) or
   buy (lanes on real cores). The regionfail comparison extends the
   same gate to a chaos scenario with live faults. *)
let shard_bench () =
  banner "Sharded engine — conservative windows, one scenario, N engines";
  let open Smapp_workload in
  let conns = scale ~q:500 ~d:2000 ~f:4000 in
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = float_of_int conns;
      flow_dist = Workload.Fixed 200_000;
    }
  in
  let available = Domain.recommended_domain_count () in
  Printf.printf
    "%d conns on the workload fabric at shards 1/2/4; lanes use min(shards,\n\
     %d) domains. Every digest must match shards=1 exactly.\n\n"
    conns available;
  let base = Workload.run config in
  let base_digest = Workload.digest base in
  Printf.printf "shards 1: %6.2f s wall, %8.0f events/s  (digest %s)\n"
    base.Workload.wall_s base.Workload.events_per_sec base_digest;
  metric "conns" (float_of_int conns);
  metric "domains_available" (float_of_int available);
  metric "shard1_wall_s" base.Workload.wall_s;
  metric "shard1_events_per_sec" base.Workload.events_per_sec;
  let all_identical = ref true in
  List.iter
    (fun shards ->
      let cfg = { config with Workload.shards } in
      let lanes_domains = min shards available in
      let r =
        if lanes_domains > 1 then begin
          let lanes = Smapp_par.Lanes.create ~domains:lanes_domains in
          Fun.protect
            ~finally:(fun () -> Smapp_par.Lanes.shutdown lanes)
            (fun () -> Workload.run ~lanes cfg)
        end
        else Workload.run cfg
      in
      let identical = Workload.digest r = base_digest in
      if not identical then all_identical := false;
      Printf.printf "shards %d: %6.2f s wall, %8.0f events/s  -> %s\n" shards
        r.Workload.wall_s r.Workload.events_per_sec
        (if identical then "identical" else "DIVERGED");
      metric (Printf.sprintf "shard%d_wall_s" shards) r.Workload.wall_s;
      metric (Printf.sprintf "shard%d_events_per_sec" shards) r.Workload.events_per_sec;
      metric
        (Printf.sprintf "shard%d_identical" shards)
        (if identical then 1.0 else 0.0))
    [ 2; 4 ];
  (* the chaos-under-shards gate: live NIC faults, sharded, still exact *)
  let rf1 = E.Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 () in
  let rf4 = E.Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 ~shards:4 () in
  let rf_identical = rf1 = rf4 in
  if not rf_identical then all_identical := false;
  Printf.printf "regionfail chaos, shards 4 vs 1: %s\n"
    (if rf_identical then "identical" else "DIVERGED");
  metric "regionfail_shard_identical" (if rf_identical then 1.0 else 0.0);
  metric "identical" (if !all_identical then 1.0 else 0.0)

(* ---------------------------------------------------- parallel sweeps *)

(* The same fig2c refresh sweep, sequentially and across 4-domain lanes:
   the results must be structurally equal (the sweep is deterministic and
   ordered), and the wall-time ratio is the measured speedup. On a
   single-core host the lanes still run correctly but the domains
   time-slice one core, so the honest speedup there is ~1x or below. *)
let par_bench () =
  banner "Parallel sweep — deterministic fig2c across domains (Smapp_par)";
  let runs = scale ~q:4 ~d:8 ~f:12 in
  let mb = scale ~q:4 ~d:15 ~f:40 in
  let seeds = E.Harness.seeds runs in
  let file_bytes = mb * 1_000_000 in
  let domains = max 4 jobs in
  let available = Domain.recommended_domain_count () in
  Printf.printf
    "fig2c refresh sweep: %d seeds x %d MB, sequential vs %d domains\n\
     (host offers %d domain%s; speedup needs real cores)\n\n"
    runs mb domains available
    (if available = 1 then "" else "s");
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sweep p () = E.Fig2c.run ?pool:p ~seeds ~file_bytes ~variant:E.Fig2c.Refresh () in
  let seq_r, seq_s = timed (sweep None) in
  let p = Smapp_par.Lanes.create ~domains in
  let par_r, par_s = timed (sweep (Some p)) in
  Smapp_par.Lanes.shutdown p;
  let identical = seq_r = par_r in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  Printf.printf "sequential: %.2f s wall\n%d domains:  %.2f s wall -> speedup x%.2f\n"
    seq_s domains par_s speedup;
  Printf.printf "results %s\n"
    (if identical then "byte-identical (ordered merge, isolated scopes)"
     else "DIFFER — determinism broken!");
  metric "seq_wall_s" seq_s;
  metric "par_wall_s" par_s;
  metric "speedup" speedup;
  metric "domains" (float_of_int domains);
  metric "domains_available" (float_of_int available);
  metric "identical" (if identical then 1.0 else 0.0)

(* -------------------------------------------- conformance-hook overhead *)

(* The FSM instrumentation in Tcb/Connection is a load-and-branch when the
   hooks are off; this section holds it to that by running the same workload
   with checks off and with the full conformance checker installed. *)
let check_overhead () =
  let open Smapp_workload in
  let conns = scale ~q:100 ~d:400 ~f:1000 in
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = float_of_int conns;
      flow_dist = Workload.Fixed 100_000;
    }
  in
  let run () = Workload.run config in
  let off = run () in
  Smapp_check.Fsm.install ();
  let on_ = Fun.protect ~finally:Smapp_check.Fsm.uninstall run in
  let ratio =
    if on_.Workload.events_per_sec > 0.0 then
      off.Workload.events_per_sec /. on_.Workload.events_per_sec
    else 0.0
  in
  Printf.printf "hooks off: %.0f events/s; hooks on: %.0f events/s (x%.3f)\n"
    off.Workload.events_per_sec on_.Workload.events_per_sec ratio;
  Printf.printf "conformance validated %d transitions\n"
    (Smapp_check.Fsm.transitions_seen ());
  metric "events_per_sec_hooks_off" off.Workload.events_per_sec;
  metric "events_per_sec_hooks_on" on_.Workload.events_per_sec;
  metric "overhead_ratio" ratio;
  (* the typed analyzer is part of the same correctness budget: record how
     long a full pass over the compiled tree takes so a rule that goes
     quadratic shows up here before it shows up in CI wall time *)
  match Smapp_check.Analysis.default_root () with
  | None -> Printf.printf "analysis: no .cmt artifacts here; skipped\n"
  | Some root ->
      let allowlist =
        match Smapp_check.Analysis.load_allowlist "analysis-allowlist.txt" with
        | Ok a -> a
        | Error _ -> Smapp_check.Analysis.empty_allowlist
      in
      let t0 = Unix.gettimeofday () in
      let r = Smapp_check.Analysis.run ~allowlist ~root () in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf "analysis: %d units in %.3f s (%d findings, %d allowlisted)\n"
        r.Smapp_check.Analysis.r_units wall
        (List.length r.Smapp_check.Analysis.r_findings)
        (List.length r.Smapp_check.Analysis.r_allowlisted);
      metric "analysis_wall_s" wall;
      metric "analysis_units" (float_of_int r.Smapp_check.Analysis.r_units);
      metric "analysis_findings"
        (float_of_int (List.length r.Smapp_check.Analysis.r_findings))

(* ---------------------------------------------------- observability cost *)

(* Smapp_obs follows the same load-and-branch discipline as the conformance
   hooks: every counter bump and span emission starts with a check of a
   [bool ref].  Instrumentation is compiled in unconditionally, so the
   "disabled" run below is the same binary as the baseline — the ratio
   between two disabled runs is the run-to-run noise floor, and the gate on
   it is a regression tripwire for anyone who moves work outside the
   enabled-branch. *)
let obs_overhead () =
  let open Smapp_workload in
  banner "Observability overhead — metrics+tracing off vs on";
  let conns = scale ~q:100 ~d:400 ~f:1000 in
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = float_of_int conns;
      flow_dist = Workload.Fixed 100_000;
    }
  in
  let saved_m = Atomic.get Smapp_obs.Metrics.enabled
  and saved_t = Atomic.get Smapp_obs.Trace.enabled in
  let run () = Workload.run config in
  let finally () =
    Atomic.set Smapp_obs.Metrics.enabled saved_m;
    Atomic.set Smapp_obs.Trace.enabled saved_t
  in
  let baseline, disabled, enabled_r =
    Fun.protect ~finally (fun () ->
        Atomic.set Smapp_obs.Metrics.enabled false;
        Atomic.set Smapp_obs.Trace.enabled false;
        let baseline = run () in
        let disabled = run () in
        Smapp_obs.Metrics.clear ();
        Smapp_obs.Trace.clear ();
        Atomic.set Smapp_obs.Metrics.enabled true;
        Atomic.set Smapp_obs.Trace.enabled true;
        let enabled_r = run () in
        (baseline, disabled, enabled_r))
  in
  let ratio a b =
    if b.Workload.events_per_sec > 0.0 then
      a.Workload.events_per_sec /. b.Workload.events_per_sec
    else 0.0
  in
  let disabled_ratio = ratio baseline disabled in
  let enabled_ratio = ratio baseline enabled_r in
  Printf.printf
    "baseline: %.0f events/s; obs disabled: %.0f events/s (x%.3f, noise floor);\n\
     obs enabled: %.0f events/s (x%.3f)\n"
    baseline.Workload.events_per_sec disabled.Workload.events_per_sec
    disabled_ratio enabled_r.Workload.events_per_sec enabled_ratio;
  Printf.printf "trace ring: %d events recorded, %d evicted\n"
    (Smapp_obs.Trace.recorded ()) (Smapp_obs.Trace.dropped ());
  Smapp_obs.Trace.export_chrome_file "trace_sample.json";
  Printf.printf "wrote trace_sample.json (Chrome trace_event format)\n";
  metric "events_per_sec_baseline" baseline.Workload.events_per_sec;
  metric "events_per_sec_disabled" disabled.Workload.events_per_sec;
  metric "events_per_sec_enabled" enabled_r.Workload.events_per_sec;
  metric "disabled_overhead_ratio" disabled_ratio;
  metric "enabled_overhead_ratio" enabled_ratio;
  metric "trace_events_recorded" (float_of_int (Smapp_obs.Trace.recorded ()))

(* -------------------------------------------------------- per-event cost *)

(* The ROADMAP item 2 instrument: per-event wall time, allocation and GC
   pressure from [Smapp_obs.Prof]'s engine dispatch brackets, at the 500-
   and 5000-conn workloads, sequential and sharded 4 ways (windows run
   sequentially so all profiling lands in this domain's scope). These are
   the metrics BENCH_BASELINE.json pins: allocation per event is a
   property of the compiled program and gets a tight benchdiff tolerance,
   the wall-clock columns are host-dependent and only gate blowups. The
   [prof_disabled_ratio] runs hold Prof to the same no-op-when-disabled
   discipline as the [obs] section: all runs have the instrumentation
   compiled in and disabled, so the ratio of best-of-3 throughputs is the
   reproducible noise floor — single runs on a busy host can drift 10%,
   but the best of three interleaved runs per side pins it near 1.0, so
   the <= 1.05 CI gate holds without flaking. *)
let perf_bench () =
  let open Smapp_workload in
  banner "Perf — per-event time/allocation/GC under Smapp_obs.Prof";
  let mk conns shards =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = float_of_int conns;
      flow_dist = Workload.Fixed 200_000;
      shards;
    }
  in
  let saved = Atomic.get Smapp_obs.Prof.enabled in
  Fun.protect ~finally:(fun () -> Atomic.set Smapp_obs.Prof.enabled saved)
  @@ fun () ->
  Atomic.set Smapp_obs.Prof.enabled false;
  let cfg_small = mk (scale ~q:100 ~d:400 ~f:1000) 1 in
  ignore (Workload.run cfg_small : Workload.result) (* warm up *);
  (* interleave the two sides (ABABAB) so a load spike hits both equally *)
  let best1 = ref 0.0 and best2 = ref 0.0 in
  for _ = 1 to 3 do
    let a = Workload.run cfg_small in
    let b = Workload.run cfg_small in
    best1 := Float.max !best1 a.Workload.events_per_sec;
    best2 := Float.max !best2 b.Workload.events_per_sec
  done;
  let disabled_ratio = if !best2 > 0.0 then !best1 /. !best2 else 0.0 in
  Printf.printf
    "prof disabled, best of 3 per side: %.0f vs %.0f events/s (ratio x%.3f, gate <= 1.05)\n\n"
    !best1 !best2 disabled_ratio;
  metric "prof_disabled_ratio" disabled_ratio;
  Atomic.set Smapp_obs.Prof.enabled true;
  let class_slug c =
    String.map
      (fun ch -> if ch = '-' then '_' else ch)
      (Smapp_obs.Prof.class_name c)
  in
  let profile tag conns shards =
    Smapp_obs.Prof.reset ();
    let r = Workload.run (mk conns shards) in
    let rep = Smapp_obs.Prof.report () in
    let events = rep.Smapp_obs.Prof.p_events in
    let sum f =
      List.fold_left (fun acc c -> acc +. f c) 0.0 rep.Smapp_obs.Prof.p_classes
    in
    let ns = sum (fun c -> c.Smapp_obs.Prof.c_ns) in
    let bytes = sum (fun c -> c.Smapp_obs.Prof.c_bytes) in
    let minor =
      sum (fun c -> float_of_int c.Smapp_obs.Prof.c_minor_gcs)
    in
    let major =
      sum (fun c -> float_of_int c.Smapp_obs.Prof.c_major_gcs)
    in
    let per x = if events > 0 then x /. float_of_int events else 0.0 in
    Printf.printf
      "%-9s %8d conns, shards %d: %9d events, %7.1f ns/event, %6.1f B/event (%5.2f words), %.0f minor / %.0f major GCs\n"
      tag conns shards events (per ns) (per bytes)
      (per bytes /. 8.0)
      minor major;
    metric (tag ^ "_events") (float_of_int events);
    metric (tag ^ "_ns_per_event") (per ns);
    metric (tag ^ "_bytes_per_event") (per bytes);
    metric (tag ^ "_words_per_event") (per bytes /. 8.0);
    metric (tag ^ "_minor_gcs") minor;
    metric (tag ^ "_major_gcs") major;
    metric (tag ^ "_events_per_sec")
      (if r.Workload.wall_s > 0.0 then float_of_int events /. r.Workload.wall_s
       else 0.0);
    rep
  in
  let rep500 = profile "w500" 500 1 in
  ignore (profile "w500_s4" 500 4 : Smapp_obs.Prof.report);
  ignore (profile "w5000" 5000 1 : Smapp_obs.Prof.report);
  ignore (profile "w5000_s4" 5000 4 : Smapp_obs.Prof.report);
  (* per-class breakdown of the 500-conn sequential run: which event class
     owns the allocation budget *)
  Printf.printf "\n";
  List.iter
    (fun c ->
      let open Smapp_obs.Prof in
      if c.c_events > 0 then begin
        let slug = class_slug c.c_class in
        metric
          (Printf.sprintf "w500_%s_bytes_per_event" slug)
          (c.c_bytes /. float_of_int c.c_events);
        metric
          (Printf.sprintf "w500_%s_share" slug)
          (float_of_int c.c_events /. float_of_int rep500.p_events)
      end)
    rep500.Smapp_obs.Prof.p_classes;
  (* minor-heap sweep point: the --minor-heap knob at 8M words vs the
     default, same workload — records what GC sizing buys on this host *)
  let saved_gc = Gc.get () in
  Gc.set { saved_gc with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set saved_gc)
  @@ (fun () -> ignore (profile "w500_minor8m" 500 1 : Smapp_obs.Prof.report));
  print_string (Smapp_obs.Prof.render rep500);
  Smapp_obs.Prof.reset ()

(* ------------------------------------------------------- microbenchmarks *)

let microbench () =
  banner "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let netlink_msg =
    Smapp_core.Pm_msg.event_to_msg ~seq:42
      (Smapp_core.Pm_msg.Sub_estab
         {
           token = 0xDEADBEEF;
           sub_id = 3;
           flow =
             Smapp_netsim.Ip.flow
               ~src:(Smapp_netsim.Ip.endpoint (Smapp_netsim.Ip.v4 10 0 0 1) 43211)
               ~dst:(Smapp_netsim.Ip.endpoint (Smapp_netsim.Ip.v4 10 0 0 2) 80);
           backup = false;
         })
  in
  let encoded = Smapp_netlink.Wire.encode netlink_msg in
  let tests =
    [
      Test.make ~name:"netlink encode" (Staged.stage (fun () ->
          ignore (Smapp_netlink.Wire.encode netlink_msg)));
      Test.make ~name:"netlink decode" (Staged.stage (fun () ->
          ignore (Smapp_netlink.Wire.decode encoded)));
      Test.make ~name:"sha1 token" (Staged.stage (fun () ->
          ignore (Smapp_mptcp.Crypto.token 0x0123456789ABCDEFL)));
      Test.make ~name:"engine schedule+run 1k" (Staged.stage (fun () ->
          let open Smapp_sim in
          let e = Engine.create () in
          for i = 1 to 1000 do
            ignore (Engine.at e (Time.of_ns i) (fun () -> ()))
          done;
          Engine.run e));
      Test.make ~name:"tcp transfer 100KB (end-to-end)" (Staged.stage (fun () ->
          let open Smapp_sim in
          let open Smapp_netsim in
          let open Smapp_tcp in
          let engine = Engine.create ~seed:3 () in
          let d = Topology.direct_link engine ~rate_bps:100e6 () in
          let cstack = Stack.attach d.Topology.client in
          let sstack = Stack.attach d.Topology.server in
          Stack.listen sstack ~port:80 (fun _ ->
              Some
                {
                  Stack.acc_config = None;
                  acc_synack_options = [];
                  acc_callbacks = Tcb.null_callbacks;
                  acc_on_created = ignore;
                });
          let cbs =
            {
              Tcb.null_callbacks with
              Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:100_000);
            }
          in
          let server_addr = List.hd (Host.addresses d.Topology.server) in
          let client_addr = List.hd (Host.addresses d.Topology.client) in
          ignore
            (Stack.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) cbs);
          Engine.run engine));
    ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let results =
    List.map
      (fun test ->
        let results = benchmark (Test.make_grouped ~name:(Test.Elt.name (List.hd (Test.elements test))) [ test ]) in
        results)
      tests
  in
  ignore results;
  (* Simpler: run and report ns/op ourselves via Bechamel analyze *)
  List.iter
    (fun test ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun _ v ->
          match Analyze.OLS.estimates v with
          | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/op\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        ols)
    tests

let () =
  Printf.printf "SMAPP benchmark harness (%s scale)\n"
    (if quick then "quick" else if full then "full/paper" else "default");
  section "fig2a" fig2a;
  section "backoff" backoff;
  section "fig2b" fig2b;
  section "scheduler_ablation" scheduler_ablation;
  section "fig2c" fig2c;
  section "fig3" fig3;
  section "fullmesh" fullmesh;
  section "chaos" chaos;
  section "workload" workload;
  section "shard" shard_bench;
  section "par" par_bench;
  section "check" check_overhead;
  section "obs" obs_overhead;
  section "perf" perf_bench;
  section "microbench" microbench;
  write_bench_json "BENCH.json";
  Printf.printf "\nDone.\n"
