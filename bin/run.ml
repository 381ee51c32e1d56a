(* One runner per experiment. Each runs its experiment, prints its table or
   figure once and returns the result: the subcommand of the same name is a
   thin wrapper around it, and the bench section of the same name reads its
   BENCH.json metrics from the value it returns. The helpers they share
   (domain lanes, observability capture) live here in one copy. *)

module E = Smapp_experiments
module Stats = Smapp_stats
module Obs = Smapp_obs
module W = Smapp_workload.Workload

(* --- shared helpers ---------------------------------------------------------- *)

(* -j N: spread an experiment's independent sweeps, or one sharded run's
   windows, across lanes of N domains, shut down when [f] returns: parked
   domains still take part in every stop-the-world minor collection, so
   they must not outlive it. Results are identical either way — the lanes
   merge in submission order and each domain records into its own
   observability scope. That is also why tracing forces a sequential run:
   another domain's trace events would never reach the exported file. *)
let with_pool ?(tracing = false) jobs f =
  if tracing && jobs > 1 then
    Printf.printf
      "note: --trace forces a sequential run (other domains trace into \
       their own scopes, away from the exported buffer)\n";
  if tracing || jobs <= 1 then f None
  else begin
    let lanes = Smapp_par.Lanes.create ~domains:jobs in
    Fun.protect ~finally:(fun () -> Smapp_par.Lanes.shutdown lanes) (fun () -> f (Some lanes))
  end

let write_trace out =
  Obs.Trace.export_chrome_file out;
  Printf.printf "wrote %d trace events (%d evicted) to %s — load in chrome://tracing or ui.perfetto.dev\n"
    (List.length (Obs.Trace.events ()))
    (Obs.Trace.dropped ()) out

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* Quantile table plus ASCII plot of each named sample list (empty lists
   are left out). *)
let print_cdf_table ?(x_label = "seconds") name named =
  let cdfs =
    List.filter_map
      (fun (n, xs) -> if xs = [] then None else Some (n, Stats.Cdf.of_samples xs))
      named
  in
  Printf.printf "\n%s\n" name;
  let table = Stats.Table.create ("quantile" :: List.map fst cdfs) in
  List.iter
    (fun q ->
      Stats.Table.add_row table
        (Printf.sprintf "p%.0f" (q *. 100.0)
        :: List.map (fun (_, cdf) -> Printf.sprintf "%.4f" (Stats.Cdf.quantile cdf q)) cdfs))
    [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.99 ];
  print_string (Stats.Table.to_string table);
  print_newline ();
  print_string (Stats.Ascii_plot.cdfs ~x_label cdfs)

(* --- the paper's figures -------------------------------------------------------- *)

let fig2a ?(seed = 42) () =
  let r = E.Fig2a.run ~seed () in
  let master = r.E.Fig2a.master and backup = r.E.Fig2a.backup in
  Printf.printf
    "Fig 2a: smart backup — seq numbers vs time (paper: loss jumps to 30%% at \
     1 s, the transfer moves to the backup at ~2 s)\n";
  (match r.E.Fig2a.failover_at with
  | Some t -> Printf.printf "controller switched to backup at %.3f s\n" t
  | None -> Printf.printf "no failover happened\n");
  Printf.printf "last data on master %.3f s, first on backup %.3f s; delivered %d bytes in %.1f s\n"
    (match List.rev master.E.Fig2a.points with (t, _) :: _ -> t | [] -> 0.0)
    (match backup.E.Fig2a.points with (t, _) :: _ -> t | [] -> nan)
    r.E.Fig2a.bytes_delivered r.E.Fig2a.duration;
  print_string
    (Stats.Ascii_plot.scatter ~x_label:"relative time (s)"
       ~y_label:"relative seq number (10^5 bytes)"
       [ (master.E.Fig2a.label, master.E.Fig2a.points); (backup.E.Fig2a.label, backup.E.Fig2a.points) ]);
  r

let fig2b ~jobs ~runs ~blocks =
  Printf.printf
    "Fig 2b: CDF of 64KB block completion time (%d runs x %d blocks; paper: \
     fullmesh grows a multi-second tail as loss rises, smart-stream stays \
     tight for 10-40%% loss)\n"
    runs blocks;
  let seeds = E.Harness.seeds runs in
  let curve variant loss =
    let r = with_pool jobs (fun pool -> E.Fig2b.run ?pool ~seeds ~blocks ~loss ~variant ()) in
    (Printf.sprintf "%s %.0f%%" (E.Fig2b.variant_name variant) (loss *. 100.), r.E.Fig2b.delays)
  in
  print_cdf_table "block completion time CDFs (s)"
    (List.concat_map
       (fun variant -> List.map (curve variant) [ 0.10; 0.20; 0.30; 0.40 ])
       [ E.Fig2b.Default_fullmesh; E.Fig2b.Smart_stream ])

(* Returns the ndiffports and refresh results, in that order. *)
let fig2c ~jobs ~runs ~mb =
  let file_bytes = mb * 1_000_000 in
  let seeds = E.Harness.seeds runs in
  Printf.printf
    "Fig 2c: CDF of %d MB completion times over 4 ECMP paths, 5 subflows (%d \
     runs; paper at 100 MB: ndiffports clusters at ~28/37/55 s for 4/3/2 \
     paths used, refresh converges to all 4)\n"
    mb runs;
  let show variant =
    let r = with_pool jobs (fun pool -> E.Fig2c.run ?pool ~seeds ~file_bytes ~variant ()) in
    Printf.printf "%s: paths used per run: %s\n" (E.Fig2c.variant_name variant)
      (String.concat "," (List.map string_of_int r.E.Fig2c.paths_used_final));
    r
  in
  let nd = show E.Fig2c.Ndiffports in
  let rf = show E.Fig2c.Refresh in
  let avg_paths r = mean (List.map float_of_int r.E.Fig2c.paths_used_final) in
  let worst r = List.fold_left Float.max 0. r.E.Fig2c.completion_times in
  Printf.printf
    "ideal (4 paths): %.1f s; refresh uses %.1f paths on average vs \
     ndiffports' %.1f; worst run %.1f s vs %.1f s\n"
    (E.Fig2c.ideal_completion ~file_bytes ~paths:4 ~rate_bps:8e6)
    (avg_paths rf) (avg_paths nd) (worst rf) (worst nd);
  print_cdf_table "completion time CDFs (s)"
    (List.map (fun r -> (E.Fig2c.variant_name r.E.Fig2c.variant, r.E.Fig2c.completion_times)) [ rf; nd ]);
  [ nd; rf ]

(* Mean CAPA-JOIN delay of [r] above the kernel run's, in us. *)
let extra_us ~kernel r = (mean r.E.Fig3.delays -. mean kernel.E.Fig3.delays) *. 1e6

(* The CPU stress of Fig 3's third curve, for `smapp fig3` and the bench. *)
let fig3_stress = 1.6

(* The kernel / userspace / stressed runs are independent simulations:
   swept together so a pool can spread them over domains. Returns them in
   that order. *)
let fig3 ~jobs ~requests ~stress =
  Printf.printf
    "Fig 3: CAPA-SYN to JOIN-SYN delay, %d HTTP GETs of 512 KB (paper: \
     userspace adds ~23 us, under 37 us with CPU stress)\n"
    requests;
  let specs =
    [ (E.Fig3.Kernel, 1.0, requests); (E.Fig3.Userspace, 1.0, requests) ]
    @ if stress > 1.0 then [ (E.Fig3.Userspace, stress, requests) ] else []
  in
  let results = with_pool jobs (fun pool -> E.Fig3.sweep ?pool specs) in
  let kernel = List.hd results in
  let label r =
    if r.E.Fig3.stress = 1.0 then E.Fig3.variant_name r.E.Fig3.variant
    else Printf.sprintf "%s (stress x%.1f)" (E.Fig3.variant_name r.E.Fig3.variant) r.E.Fig3.stress
  in
  let ms r = List.map (fun d -> d *. 1000.0) r.E.Fig3.delays in
  List.iter
    (fun r ->
      match ms r with
      | [] -> Printf.printf "%s: no joins observed!\n" (label r)
      | delays ->
          let s = Stats.Summary.of_samples delays in
          Printf.printf "%s: %d joins, mean %.3f ms, sd %.4f ms, %+.1f us vs kernel\n" (label r)
            s.Stats.Summary.count s.Stats.Summary.mean s.Stats.Summary.stddev
            (extra_us ~kernel r))
    results;
  print_cdf_table ~x_label:"delay between CAPA and JOIN (ms)" "CAPA-JOIN delay CDFs (ms)"
    (List.map (fun r -> (label r, ms r)) results);
  results

(* The traced decomposition of the Fig 3 userspace gap; returns the
   component sum over the measured gap. *)
let print_breakdown b =
  let model = E.Fig3.breakdown_model_us b in
  Printf.printf "\nFig 3 reaction-gap decomposition (%d requests):\n" b.E.Fig3.b_requests;
  Printf.printf "  measured userspace extra  : %7.2f us\n" b.E.Fig3.b_extra_us;
  Printf.printf "  netlink k->u crossing     : %7.2f us\n" b.E.Fig3.b_up_us;
  Printf.printf "  netlink u->k crossing     : %7.2f us\n" b.E.Fig3.b_down_us;
  Printf.printf "  in-kernel reaction skipped: %7.2f us\n" (-.b.E.Fig3.b_kernel_pm_us);
  Option.iter
    (Printf.printf "  decision round trip       : %7.2f us (event->command->reply)\n")
    b.E.Fig3.b_decision_rtt_us;
  let ratio = if b.E.Fig3.b_extra_us = 0.0 then 0.0 else model /. b.E.Fig3.b_extra_us in
  Printf.printf "  component sum %.2f us = %.0f%% of the measured gap%s\n" model (ratio *. 100.)
    (if Float.abs (ratio -. 1.0) <= 0.2 then " (within 20%)" else " (OUTSIDE 20%)");
  ratio

let backoff ?horizon ~loss () =
  Printf.printf
    "Backoff (4.2 text): binary backup semantics under %.0f%% loss from t=1s \
     (paper: 15 RTO doublings, ~12 min)\n"
    (loss *. 100.0);
  let r = E.Backoff.run ~loss ?horizon () in
  (match r.E.Backoff.subflow_died_at with
  | Some t -> Printf.printf "primary subflow killed after %.1f s (~%.1f min)\n" t (t /. 60.0)
  | None ->
      Printf.printf
        "primary subflow still alive at the horizon: occasional successful \
         retransmissions keep resetting its retry counter\n");
  Printf.printf "rto expirations on primary: %d, max rto %.1f s\n" r.E.Backoff.rto_expirations
    r.E.Backoff.max_rto_seen;
  Printf.printf "bytes delivered before/after failover: %d / %d\n"
    r.E.Backoff.bytes_before_failover r.E.Backoff.bytes_after_failover

let fullmesh ?(seed = 42) () =
  Printf.printf "4.1: userspace fullmesh controller on a long-lived connection\n";
  let r = E.Fullmesh_recovery.run ~seed () in
  List.iter
    (fun c ->
      Printf.printf "%7.1fs  %-26s subflows=%d\n" c.E.Fullmesh_recovery.at
        c.E.Fullmesh_recovery.label c.E.Fullmesh_recovery.subflows_alive)
    r.E.Fullmesh_recovery.checkpoints;
  Printf.printf "controller created %d subflows, scheduled %d reconnects\n"
    r.E.Fullmesh_recovery.subflows_created_by_controller r.E.Fullmesh_recovery.reconnects;
  Printf.printf "keepalives sent: %d; final subflows: %d\n"
    r.E.Fullmesh_recovery.messages_sent r.E.Fullmesh_recovery.final_subflows

(* --- chaos -------------------------------------------------------------------- *)

let pp_convergence r =
  Printf.printf
    "%-8s drop=%4.0f%% seed=%-3d  converged=%-8s dup_subs=%d  kernel/view subs=%d/%d  \
     retries=%d resyncs=%d gaps=%d  ch drops=%d dups=%d enobufs=%d  key replays=%d\n"
    r.E.Chaos.controller (r.E.Chaos.drop *. 100.0) r.E.Chaos.seed
    (match r.E.Chaos.converged_after_s with
    | Some s -> Printf.sprintf "%.3fs" s
    | None -> "NEVER")
    r.E.Chaos.duplicate_subflows r.E.Chaos.kernel_subflows r.E.Chaos.view_subflows
    r.E.Chaos.retries r.E.Chaos.resyncs r.E.Chaos.gaps_detected r.E.Chaos.dropped
    r.E.Chaos.duplicated r.E.Chaos.overflowed r.E.Chaos.duplicate_commands

let pp_dataplane r =
  Printf.printf
    "%-8s seed=%-4d  bytes=%d/%d %-8s  handovers=%d failovers=%d requests=%d \
     reconnects=%d stale=%d  max_stall=%.2fs (bound %.1fs)  link_drops=%d  \
     goodput=%.2f Mbit/s  -> %s\n"
    r.E.Chaos.dp_scenario r.E.Chaos.dp_seed r.E.Chaos.dp_bytes_received
    r.E.Chaos.dp_bytes_sent
    (if r.E.Chaos.dp_byte_exact then "exact" else "MISMATCH")
    r.E.Chaos.dp_handovers r.E.Chaos.dp_failovers r.E.Chaos.dp_subflow_requests
    r.E.Chaos.dp_reconnects r.E.Chaos.dp_stale_suppressed r.E.Chaos.dp_max_stall_s
    r.E.Chaos.dp_stall_bound_s r.E.Chaos.dp_link_drops
    (r.E.Chaos.dp_goodput_bps /. 1e6)
    (if E.Chaos.dataplane_invariants_ok r then "ok" else "INVARIANT VIOLATION")

(* Control-plane convergence (one run, or the (drop x seed) grid), then the
   watchdog taking over from a daemon lost for good. *)
let chaos_control ~jobs ?(tracing = false) ~grid ?seeds ?drops ~seed ~drop () =
  Printf.printf "Chaos: fullmesh controller over a lossy Netlink channel + daemon restart\n";
  if grid then
    List.iter pp_convergence
      (with_pool ~tracing jobs (fun pool -> E.Chaos.run_grid ?pool ?seeds ?drops ()))
  else pp_convergence (E.Chaos.run_convergence ~seed ~drop ());
  Printf.printf "\nWatchdog: daemon lost for good at t=5s\n";
  let w = E.Chaos.run_watchdog ~seed () in
  Printf.printf "fallback_active=%b fallbacks=%d handbacks=%d kernel_subflows=%d\n"
    w.E.Chaos.w_fallback_active w.E.Chaos.w_fallbacks w.E.Chaos.w_handbacks
    w.E.Chaos.w_kernel_subflows;
  Printf.printf "bytes acked at loss / at end: %d / %d (%s)\n" w.E.Chaos.w_bytes_at_loss
    w.E.Chaos.w_bytes_final
    (if w.E.Chaos.w_bytes_final > w.E.Chaos.w_bytes_at_loss then "still transferring"
     else "STALLED")

let chaos_dataplane ~jobs ?(tracing = false) ~grid ~seed ~shards scenarios =
  Printf.printf "Data-plane chaos: time-varying links, handover churn, degradation audit\n";
  if shards > 1 then
    Printf.printf
      "note: --shards %d applies to regionfail; the cable-modulation \
       scenarios are single-engine by construction\n"
      shards;
  let results =
    if grid then
      with_pool ~tracing jobs (fun pool ->
          E.Chaos.run_dataplane_grid ?pool ~scenarios ~shards ())
    else List.map (fun scenario -> E.Chaos.run_dataplane ~scenario ~seed ~shards ()) scenarios
  in
  List.iter pp_dataplane results;
  results

(* --- workload and profiler ------------------------------------------------------ *)

(* [runs] consecutive seeds from [config.seed]; a single run puts its shard
   windows on min(shards, [jobs]) lanes, several runs parallelise whole
   seeds instead. *)
let workload ~jobs ?trace ~runs config =
  let tracing = trace <> None in
  Printf.printf "workload: %d conns at %g/s, %d clients x %d servers x %d paths, seed %d%s%s\n"
    config.W.conns config.W.arrival_rate config.W.clients config.W.servers config.W.paths
    config.W.seed
    (if config.W.shards > 1 then Printf.sprintf ", %d shards" config.W.shards else "")
    (if runs > 1 then Printf.sprintf " (x%d runs)" runs else "");
  let seeds = List.init runs (fun i -> config.W.seed + i) in
  let run_all () =
    let rs =
      if runs = 1 then
        [ with_pool ~tracing (min config.W.shards jobs) (fun lanes -> W.run ?lanes config) ]
      else with_pool ~tracing jobs (fun pool -> W.run_many ?pool ~seeds config)
    in
    Option.iter write_trace trace;
    rs
  in
  let rs = if tracing then Obs.Scope.recording run_all else run_all () in
  List.iter2
    (fun run_seed r ->
      if runs > 1 then Printf.printf "\n[seed %d]\n" run_seed;
      Printf.printf "completed %d/%d (peak %d concurrent), %d bytes total\n" r.W.completed
        r.W.launched r.W.peak_concurrent r.W.bytes_total;
      Printf.printf "controller: %d subflows created, %d failovers\n" r.W.subflows_created
        r.W.failovers;
      Printf.printf "simulated %.2f s in %.2f s wall; %d events -> %.0f events/s\n"
        r.W.sim_duration_s r.W.wall_s r.W.engine_events r.W.events_per_sec;
      (* every deterministic field, bit-exactly: the byte-identity gate
         for sequential-vs-sharded runs compares this line *)
      Printf.printf "digest %s\n" (W.digest r))
    seeds rs;
  print_cdf_table "flow completion times (s)"
    [ ("fct", List.concat_map (fun r -> r.W.fcts) rs) ];
  rs

(* The scale-out workload under [Smapp_obs.Prof]: the run sits inside one
   root frame, and the same call is bracketed externally with the wall
   clock and [Gc.allocated_bytes]. The report's totals must reconcile with
   both within 5%, or the profiler's attribution can't be trusted. (The
   bound is loose because the external bracket also sees the profiler's
   own bookkeeping and anything outside event dispatch.) Returns whether
   it reconciled. *)
let prof ?json ~conns ~seed ~shards () =
  let config =
    {
      W.default_config with
      W.conns;
      arrival_rate = float_of_int conns;
      flow_dist = W.Fixed 200_000;
      seed;
      shards;
    }
  in
  Printf.printf "prof: %d conns, seed %d%s, profiling on\n\n" conns seed
    (if shards > 1 then Printf.sprintf ", %d shards (sequential windows)" shards else "");
  let result, wall_ns, alloc_bytes =
    Obs.Scope.recording (fun () ->
        let a0 = Gc.allocated_bytes () in
        let t0 = Unix.gettimeofday () in
        let r = Obs.Prof.with_frame "run" (fun () -> W.run config) in
        let t1 = Unix.gettimeofday () in
        let a1 = Gc.allocated_bytes () in
        (r, (t1 -. t0) *. 1e9, a1 -. a0))
  in
  let rep = Obs.Prof.report () in
  print_string (Obs.Prof.render rep);
  Printf.printf "\nengine: %d events dispatched (profiler saw %d)\n" result.W.engine_events
    rep.Obs.Prof.p_events;
  let rel a b = if b = 0.0 then Float.abs a else Float.abs (a -. b) /. b in
  let self_ns =
    List.fold_left (fun acc f -> acc +. Obs.Prof.sum_self_ns f) 0.0 rep.Obs.Prof.p_frames
  in
  let total_ns = Obs.Prof.total_ns rep in
  let total_bytes = Obs.Prof.total_bytes rep in
  let ns_err = rel total_ns wall_ns in
  let bytes_err = rel total_bytes alloc_bytes in
  let self_err = rel self_ns total_ns in
  Printf.printf
    "reconcile: wall %.3f ms vs frames %.3f ms (%.2f%% off); Gc.allocated_bytes \
     %.2f MB vs frames %.2f MB (%.2f%% off); self-sum %.2f%% off total\n"
    (wall_ns /. 1e6) (total_ns /. 1e6) (ns_err *. 100.0) (alloc_bytes /. 1e6)
    (total_bytes /. 1e6) (bytes_err *. 100.0) (self_err *. 100.0);
  Option.iter
    (fun path ->
      Stats.Json.to_file path
        (Stats.Json.Obj
           [
             ("conns", Stats.Json.Int conns);
             ("seed", Stats.Json.Int seed);
             ("shards", Stats.Json.Int shards);
             ("wall_ns", Stats.Json.Float wall_ns);
             ("allocated_bytes", Stats.Json.Float alloc_bytes);
             ("report", Obs.Prof.report_json rep);
           ]);
      Printf.printf "wrote %s\n" path)
    json;
  let reconciled = ns_err <= 0.05 && bytes_err <= 0.05 && self_err <= 0.05 in
  if not reconciled then
    Printf.printf "prof: reconciliation outside 5%% — attribution untrustworthy\n";
  reconciled
