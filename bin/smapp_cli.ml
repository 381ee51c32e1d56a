(* The smapp command-line tool: run any of the paper's experiments and
   print its table/figure as text. *)

open Cmdliner
module E = Smapp_experiments
module Stats = Smapp_stats
module Obs = Smapp_obs

(* Run [f] with metrics + tracing on (cleared first), restoring the flags
   afterwards. The recorded data stays available for export. *)
let with_obs f =
  let saved_m = Atomic.get Obs.Metrics.enabled
  and saved_t = Atomic.get Obs.Trace.enabled in
  Atomic.set Obs.Metrics.enabled true;
  Atomic.set Obs.Trace.enabled true;
  Obs.Metrics.clear ();
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Atomic.set Obs.Metrics.enabled saved_m;
      Atomic.set Obs.Trace.enabled saved_t)
    f

(* -j N / --jobs N: run the experiment's independent sweeps across N domains
   (default 1: plain sequential, no pool). Results are identical either way —
   the lanes merge in submission order and each job runs inside an isolated
   observability scope. That isolation is also why tracing forces a
   sequential run: a pooled job's trace events live in its private scope and
   would never reach the exported file. Each sweep gets its own lanes, shut
   down when it returns: parked domains still take part in every
   stop-the-world minor collection, so they must not outlive the sweep. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run the experiment's independent sweeps across $(docv) domains.")

let with_pool ?(tracing = false) jobs f =
  if jobs < 1 then invalid_arg "--jobs expects a positive domain count";
  if tracing && jobs > 1 then begin
    Printf.printf
      "note: --trace forces a sequential run (pooled jobs trace into \
       per-domain scopes, away from the exported buffer)\n";
    f None
  end
  else if jobs = 1 then f None
  else begin
    let pool = Smapp_par.Lanes.create ~domains:jobs in
    Fun.protect
      ~finally:(fun () -> Smapp_par.Lanes.shutdown pool)
      (fun () -> f (Some pool))
  end

let write_trace out =
  Obs.Trace.export_chrome_file out;
  Printf.printf "wrote %d trace events (%d evicted) to %s — load in chrome://tracing or ui.perfetto.dev\n"
    (List.length (Obs.Trace.events ()))
    (Obs.Trace.dropped ()) out

let print_cdf_table name cdfs =
  Printf.printf "\n%s\n" name;
  let table = Stats.Table.create ("quantile" :: List.map fst cdfs) in
  List.iter
    (fun q ->
      Stats.Table.add_row table
        (Printf.sprintf "p%.0f" (q *. 100.0)
        :: List.map (fun (_, cdf) -> Printf.sprintf "%.3f" (Stats.Cdf.quantile cdf q)) cdfs))
    [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.99 ];
  print_string (Stats.Table.to_string table);
  print_newline ();
  print_string (Stats.Ascii_plot.cdfs ~x_label:"seconds" cdfs)

(* --- fig2a ------------------------------------------------------------------ *)

let run_fig2a seed =
  let r = E.Fig2a.run ~seed () in
  Printf.printf "Fig 2a: smart backup — seq numbers vs time\n";
  (match r.E.Fig2a.failover_at with
  | Some t -> Printf.printf "controller switched to backup at %.3f s\n" t
  | None -> Printf.printf "no failover happened\n");
  Printf.printf "delivered %d bytes in %.1f s\n" r.E.Fig2a.bytes_delivered r.E.Fig2a.duration;
  let series =
    [
      (r.E.Fig2a.master.E.Fig2a.label, r.E.Fig2a.master.E.Fig2a.points);
      (r.E.Fig2a.backup.E.Fig2a.label, r.E.Fig2a.backup.E.Fig2a.points);
    ]
  in
  print_string
    (Stats.Ascii_plot.scatter ~x_label:"relative time (s)"
       ~y_label:"relative seq number (10^5 bytes)" series)

let fig2a_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v (Cmd.info "fig2a" ~doc:"Smart backup trace (Fig 2a)")
    Term.(const run_fig2a $ seed)

(* --- fig2b ------------------------------------------------------------------ *)

let run_fig2b runs blocks jobs =
  let seeds = E.Harness.seeds runs in
  Printf.printf "Fig 2b: CDF of 64KB block completion time (%d runs x %d blocks)\n" runs
    blocks;
  let losses = [ 0.10; 0.20; 0.30; 0.40 ] in
  let curve variant loss =
    let r =
      with_pool jobs (fun pool -> E.Fig2b.run ?pool ~seeds ~blocks ~loss ~variant ())
    in
    ( Printf.sprintf "%s %d%%" (E.Fig2b.variant_name variant) (int_of_float (loss *. 100.)),
      r.E.Fig2b.delays )
  in
  let fullmesh = List.map (curve E.Fig2b.Default_fullmesh) losses in
  let smart = curve E.Fig2b.Smart_stream 0.30 in
  let cdfs =
    List.filter_map
      (fun (name, delays) ->
        if delays = [] then None else Some (name, Stats.Cdf.of_samples delays))
      (smart :: fullmesh)
  in
  print_cdf_table "block completion time CDFs (s)" cdfs

let fig2b_cmd =
  let runs = Arg.(value & opt int 5 & info [ "runs" ] ~doc:"Seeds per curve.") in
  let blocks = Arg.(value & opt int 30 & info [ "blocks" ] ~doc:"Blocks per run.") in
  Cmd.v (Cmd.info "fig2b" ~doc:"Smart streaming CDFs (Fig 2b)")
    Term.(const run_fig2b $ runs $ blocks $ jobs_arg)

(* --- fig2c ------------------------------------------------------------------ *)

let run_fig2c runs mb jobs =
  let file_bytes = mb * 1_000_000 in
  let seeds = E.Harness.seeds runs in
  Printf.printf "Fig 2c: CDF of %d MB completion times over 4 ECMP paths, 5 subflows (%d runs)\n"
    mb runs;
  let show variant =
    let r =
      with_pool jobs (fun pool -> E.Fig2c.run ?pool ~seeds ~file_bytes ~variant ())
    in
    Printf.printf "%s: paths used per run: %s\n"
      (E.Fig2c.variant_name variant)
      (String.concat "," (List.map string_of_int r.E.Fig2c.paths_used_final));
    ( E.Fig2c.variant_name variant,
      r.E.Fig2c.completion_times )
  in
  let nd = show E.Fig2c.Ndiffports in
  let rf = show E.Fig2c.Refresh in
  Printf.printf "ideal (4 paths): %.1f s\n"
    (E.Fig2c.ideal_completion ~file_bytes ~paths:4 ~rate_bps:8e6);
  let cdfs =
    List.filter_map
      (fun (name, times) ->
        if times = [] then None else Some (name, Stats.Cdf.of_samples times))
      [ rf; nd ]
  in
  print_cdf_table "completion time CDFs (s)" cdfs

let fig2c_cmd =
  let runs = Arg.(value & opt int 20 & info [ "runs" ] ~doc:"Runs per variant.") in
  let mb = Arg.(value & opt int 100 & info [ "mb" ] ~doc:"File size in MB.") in
  Cmd.v (Cmd.info "fig2c" ~doc:"ECMP refresh controller vs ndiffports (Fig 2c)")
    Term.(const run_fig2c $ runs $ mb $ jobs_arg)

(* --- fig3 ------------------------------------------------------------------- *)

let run_fig3 requests stress jobs =
  Printf.printf "Fig 3: CAPA-SYN to JOIN-SYN delay, %d HTTP GETs of 512 KB\n" requests;
  (* the kernel / userspace / stressed runs are independent simulations:
     sweep them together so a pool can spread them over domains *)
  let specs =
    [ (E.Fig3.Kernel, 1.0, requests); (E.Fig3.Userspace, 1.0, requests) ]
    @ (if stress > 1.0 then [ (E.Fig3.Userspace, stress, requests) ] else [])
  in
  let show r =
    let delays_ms = List.map (fun d -> d *. 1000.0) r.E.Fig3.delays in
    let label =
      if r.E.Fig3.stress = 1.0 then E.Fig3.variant_name r.E.Fig3.variant
      else
        Printf.sprintf "%s (stress x%.1f)"
          (E.Fig3.variant_name r.E.Fig3.variant)
          r.E.Fig3.stress
    in
    (match delays_ms with
    | [] -> Printf.printf "%s: no joins observed!\n" label
    | _ ->
        let s = Stats.Summary.of_samples delays_ms in
        Printf.printf "%s: %d joins, mean %.3f ms, sd %.4f ms\n" label
          s.Stats.Summary.count s.Stats.Summary.mean s.Stats.Summary.stddev);
    (label, delays_ms)
  in
  let kernel, user, stressed =
    match List.map show (with_pool jobs (fun pool -> E.Fig3.sweep ?pool specs)) with
    | kernel :: user :: stressed -> (kernel, user, stressed)
    | _ -> assert false (* sweep preserves length; specs has >= 2 entries *)
  in
  (match (kernel, user) with
  | (_, _ :: _), (_, _ :: _) ->
      let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      Printf.printf "userspace adds %.1f us on average (paper: ~23 us)\n"
        ((mean (snd user) -. mean (snd kernel)) *. 1000.0)
  | _ -> ());
  let cdfs =
    List.filter_map
      (fun (name, delays) ->
        if delays = [] then None else Some (name, Stats.Cdf.of_samples delays))
      ([ kernel; user ] @ stressed)
  in
  Printf.printf "\n";
  List.iter
    (fun q ->
      Printf.printf "p%-3.0f %s\n" (q *. 100.)
        (String.concat "  "
           (List.map
              (fun (name, cdf) ->
                Printf.sprintf "%s=%.4fms" name (Stats.Cdf.quantile cdf q))
              cdfs)))
    [ 0.25; 0.5; 0.75; 0.95 ];
  print_string
    (Stats.Ascii_plot.cdfs ~x_label:"delay between CAPA and JOIN (ms)" cdfs)

let fig3_cmd =
  let requests = Arg.(value & opt int 1000 & info [ "requests" ] ~doc:"GET count.") in
  let stress =
    Arg.(value & opt float 1.6 & info [ "stress" ] ~doc:"CPU stress multiplier.")
  in
  Cmd.v (Cmd.info "fig3" ~doc:"Kernel vs userspace PM latency (Fig 3)")
    Term.(const run_fig3 $ requests $ stress $ jobs_arg)

(* --- backoff ----------------------------------------------------------------- *)

let run_backoff loss =
  Printf.printf
    "Backoff (4.2 text): binary backup semantics under %.0f%% loss from t=1s\n"
    (loss *. 100.0);
  let r = E.Backoff.run ~loss () in
  (match r.E.Backoff.subflow_died_at with
  | Some t ->
      Printf.printf
        "primary subflow killed after %.1f s (~%.1f min; paper observes ~12 min)\n" t
        (t /. 60.0)
  | None -> Printf.printf "primary subflow still alive at horizon\n");
  Printf.printf "rto expirations on primary: %d, max rto %.1f s\n"
    r.E.Backoff.rto_expirations r.E.Backoff.max_rto_seen;
  Printf.printf "bytes delivered before/after failover: %d / %d\n"
    r.E.Backoff.bytes_before_failover r.E.Backoff.bytes_after_failover

let backoff_cmd =
  let loss = Arg.(value & opt float 0.30 & info [ "loss" ] ~doc:"Loss ratio.") in
  Cmd.v (Cmd.info "backoff" ~doc:"RFC-style backup failover latency (4.2 text)")
    Term.(const run_backoff $ loss)

(* --- fullmesh ---------------------------------------------------------------- *)

let run_fullmesh seed =
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

let fullmesh_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v (Cmd.info "fullmesh" ~doc:"Fullmesh controller failure recovery (4.1)")
    Term.(const run_fullmesh $ seed)

(* --- chaos ------------------------------------------------------------------- *)

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

let run_chaos scenario seed drop grid shards jobs trace =
  let with_pool f = with_pool ~tracing:(trace <> None) jobs f in
  if jobs < 1 then invalid_arg "--jobs expects a positive domain count";
  if shards < 1 then invalid_arg "--shards expects a positive count";
  let dataplane scenarios =
    Printf.printf
      "Data-plane chaos: time-varying links, handover churn, degradation audit\n";
    if shards > 1 then
      Printf.printf
        "note: --shards %d applies to regionfail; the cable-modulation \
         scenarios are single-engine by construction\n"
        shards;
    let results =
      if grid then
        with_pool (fun pool -> E.Chaos.run_dataplane_grid ?pool ~scenarios ~shards ())
      else
        List.map
          (fun scenario -> E.Chaos.run_dataplane ~scenario ~seed ~shards ())
          scenarios
    in
    List.iter pp_dataplane results;
    if not (List.for_all E.Chaos.dataplane_invariants_ok results) then begin
      Printf.printf "graceful-degradation invariants VIOLATED\n";
      exit 1
    end
  in
  let body () =
    match scenario with
    | `Mobile -> dataplane [ `Mobile ]
    | `Degrade -> dataplane [ `Degrade ]
    | `Dualfade -> dataplane [ `Dualfade ]
    | `Regionfail -> dataplane [ `Regionfail ]
    | `Dataplane -> dataplane [ `Mobile; `Degrade; `Dualfade; `Regionfail ]
    | `Control ->
        Printf.printf
          "Chaos: fullmesh controller over a lossy Netlink channel + daemon restart\n";
        if grid then
          List.iter pp_convergence (with_pool (fun pool -> E.Chaos.run_grid ?pool ()))
        else pp_convergence (E.Chaos.run_convergence ~seed ~drop ());
        Printf.printf "\nWatchdog: daemon lost for good at t=5s\n";
        let w = E.Chaos.run_watchdog ~seed () in
        Printf.printf
          "fallback_active=%b fallbacks=%d handbacks=%d kernel_subflows=%d\n"
          w.E.Chaos.w_fallback_active w.E.Chaos.w_fallbacks w.E.Chaos.w_handbacks
          w.E.Chaos.w_kernel_subflows;
        Printf.printf "bytes acked at loss / at end: %d / %d (%s)\n"
          w.E.Chaos.w_bytes_at_loss w.E.Chaos.w_bytes_final
          (if w.E.Chaos.w_bytes_final > w.E.Chaos.w_bytes_at_loss then
             "still transferring"
           else "STALLED")
  in
  match trace with
  | None -> body ()
  | Some out ->
      with_obs (fun () ->
          body ();
          write_trace out)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Record a Chrome trace of the run into $(docv).")

let chaos_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let drop =
    Arg.(value & opt float 0.05 & info [ "drop" ] ~doc:"Netlink message drop ratio.")
  in
  let grid =
    Arg.(
      value & flag
      & info [ "grid" ] ~doc:"Sweep the scenario's full (parameter x seed) grid.")
  in
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [
               ("control", `Control);
               ("mobile", `Mobile);
               ("degrade", `Degrade);
               ("dualfade", `Dualfade);
               ("regionfail", `Regionfail);
               ("dataplane", `Dataplane);
             ])
          `Control
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "One of control (lossy Netlink + daemon restart), mobile (WiFi/LTE \
             handover roaming), degrade (primary fades then dies), dualfade \
             (correlated burst loss on both paths), regionfail (half the \
             workload clients lose a NIC; shardable), dataplane (all four \
             data-plane scenarios). Data-plane runs exit non-zero if a \
             graceful-degradation invariant is violated.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run shardable data-plane scenarios across $(docv) engines \
             (conservative windows); results are byte-identical to --shards 1.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault injection: control-plane convergence and data-plane degradation")
    Term.(
      const run_chaos $ scenario $ seed $ drop $ grid $ shards $ jobs_arg
      $ trace_arg)

(* --- workload ----------------------------------------------------------------- *)

let parse_flow_dist s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "fixed"; n ] -> Ok (Smapp_workload.Workload.Fixed (int_of_string n))
  | [ "exp"; mean ] ->
      Ok (Smapp_workload.Workload.Exponential { mean = int_of_string mean })
  | [ "pareto"; xmin; alpha; cap ] ->
      Ok
        (Smapp_workload.Workload.Pareto
           {
             xmin = int_of_string xmin;
             alpha = float_of_string alpha;
             cap = int_of_string cap;
           })
  | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad flow distribution %S (want fixed:BYTES, exp:MEAN or \
               pareto:XMIN:ALPHA:CAP)"
              s))

let flow_dist_conv =
  Arg.conv
    ( (fun s -> try parse_flow_dist s with Failure _ -> Error (`Msg ("bad number in " ^ s))),
      fun ppf d ->
        let open Smapp_workload.Workload in
        match d with
        | Fixed n -> Format.fprintf ppf "fixed:%d" n
        | Exponential { mean } -> Format.fprintf ppf "exp:%d" mean
        | Pareto { xmin; alpha; cap } -> Format.fprintf ppf "pareto:%d:%g:%d" xmin alpha cap )

let controller_conv =
  Arg.enum [ ("none", `None); ("fullmesh", `Fullmesh); ("backup", `Backup) ]

(* --minor-heap WORDS[k|m]: Gc.set at startup, before any engine exists.
   Sizing the minor heap to the datapath's working set trades minor-GC
   frequency against cache footprint; the bench perf section records a
   sweep point so the effect is tracked per host. Purely a performance
   knob: results are byte-identical at any setting (the determinism
   gates run the same digests regardless of GC schedule). *)
let parse_minor_heap s =
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
  | Some n when n > 0 -> Ok (n * mult)
  | Some _ | None ->
      Error
        (`Msg
           (Printf.sprintf "bad minor-heap size %S (want WORDS, e.g. 512k or 8m)" s))

let minor_heap_conv =
  Arg.conv (parse_minor_heap, fun ppf words -> Format.fprintf ppf "%d" words)

let minor_heap_arg =
  Arg.(
    value
    & opt (some minor_heap_conv) None
    & info [ "minor-heap" ] ~docv:"WORDS"
        ~doc:
          "Set the GC minor heap size in words (suffixes k/m) before the run. \
           Performance only — results are byte-identical at any setting.")

let apply_minor_heap = function
  | None -> ()
  | Some words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

let run_workload conns arrival_rate flow_dist controller clients servers paths shards
    seed runs minor_heap jobs trace =
  apply_minor_heap minor_heap;
  let open Smapp_workload in
  if jobs < 1 then invalid_arg "--jobs expects a positive domain count";
  if shards < 1 then invalid_arg "--shards expects a positive count";
  let shards =
    if shards > 1 && trace <> None then begin
      (* each shard traces into its private scope, invisible to the
         exported buffer — same reason --trace forces --jobs 1 *)
      Printf.printf "note: --trace forces --shards 1\n";
      1
    end
    else shards
  in
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate;
      flow_dist;
      controller;
      clients;
      servers;
      paths;
      seed;
      shards;
    }
  in
  if runs < 1 then invalid_arg "--runs expects a positive count";
  Printf.printf
    "workload: %d conns at %g/s, %d clients x %d servers x %d paths, seed %d%s%s\n"
    conns arrival_rate clients servers paths seed
    (if shards > 1 then Printf.sprintf ", %d shards" shards else "")
    (if runs > 1 then Printf.sprintf " (x%d runs)" runs else "");
  let seeds = List.init runs (fun i -> seed + i) in
  let run_all () =
    let rs =
      if runs = 1 then begin
        (* window lanes across domains: the in-scenario parallelism; with
           multiple runs the pool parallelises whole seeds instead *)
        let lanes_domains = min shards jobs in
        if shards > 1 && lanes_domains > 1 then begin
          let lanes = Smapp_par.Lanes.create ~domains:lanes_domains in
          Fun.protect
            ~finally:(fun () -> Smapp_par.Lanes.shutdown lanes)
            (fun () -> [ Workload.run ~lanes config ])
        end
        else [ Workload.run config ]
      end
      else
        with_pool ~tracing:(trace <> None) jobs (fun pool ->
            Workload.run_many ?pool ~seeds config)
    in
    (match trace with Some out -> write_trace out | None -> ());
    rs
  in
  let rs = match trace with None -> run_all () | Some _ -> with_obs run_all in
  List.iter2
    (fun run_seed r ->
      if runs > 1 then Printf.printf "\n[seed %d]\n" run_seed;
      Printf.printf "completed %d/%d (peak %d concurrent), %d bytes total\n"
        r.Workload.completed r.Workload.launched r.Workload.peak_concurrent
        r.Workload.bytes_total;
      Printf.printf "controller: %d subflows created, %d failovers\n"
        r.Workload.subflows_created r.Workload.failovers;
      Printf.printf "simulated %.2f s in %.2f s wall; %d events -> %.0f events/s\n"
        r.Workload.sim_duration_s r.Workload.wall_s r.Workload.engine_events
        r.Workload.events_per_sec;
      (* every deterministic field, bit-exactly: the byte-identity gate
         for sequential-vs-sharded runs compares this line *)
      Printf.printf "digest %s\n" (Workload.digest r))
    seeds rs;
  (match List.concat_map (fun r -> r.Workload.fcts) rs with
  | [] -> ()
  | samples ->
      print_cdf_table "flow completion times (s)"
        [ ("fct", Stats.Cdf.of_samples samples) ]);
  if List.exists (fun r -> r.Workload.completed < r.Workload.launched) rs then exit 1

let workload_cmd =
  let conns =
    Arg.(value & opt int 1000 & info [ "conns" ] ~doc:"Connections to launch.")
  in
  let arrival_rate =
    Arg.(
      value & opt float 500.0
      & info [ "arrival-rate" ] ~doc:"Mean Poisson arrivals per second.")
  in
  let flow_dist =
    Arg.(
      value
      & opt flow_dist_conv Smapp_workload.Workload.default_config.Smapp_workload.Workload.flow_dist
      & info [ "flow-dist" ]
          ~doc:"Flow size distribution: fixed:BYTES, exp:MEAN or pareto:XMIN:ALPHA:CAP.")
  in
  let controller =
    Arg.(
      value & opt controller_conv `Fullmesh
      & info [ "controller" ] ~doc:"Per-connection controller: none, fullmesh or backup.")
  in
  let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Client hosts.") in
  let servers = Arg.(value & opt int 4 & info [ "servers" ] ~doc:"Server hosts.") in
  let paths = Arg.(value & opt int 2 & info [ "paths" ] ~doc:"Disjoint paths.") in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the scenario across $(docv) engines under the \
             conservative-window protocol; results are byte-identical to \
             --shards 1. With --runs 1, windows execute across min(N, \
             --jobs) domains.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let runs =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~doc:"Repeat with consecutive seeds; FCTs are pooled.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Scale-out traffic: many connections under per-connection controllers")
    Term.(
      const run_workload $ conns $ arrival_rate $ flow_dist $ controller $ clients
      $ servers $ paths $ shards $ seed $ runs $ minor_heap_arg $ jobs_arg $ trace_arg)

(* --- check: the correctness tooling ----------------------------------------- *)

let run_check quick permutations =
  let module Check = Smapp_check in
  let failures = ref 0 in
  let part name ok detail =
    Printf.printf "%s %-28s %s\n" (if ok then "ok  " else "FAIL") name detail;
    if not ok then incr failures
  in
  (* 1. the transition tables are structurally sound *)
  (match Check.Fsm.self_check () with
  | Ok () -> part "fsm self-check" true "tables complete, terminal, reachable"
  | Error msg -> part "fsm self-check" false msg);
  (* 2. the compiled tree is analyzer-clean (when run from the repo root) *)
  (match Check.Analysis.default_root () with
  | None -> Printf.printf "skip analysis (no .cmt artifacts here)\n"
  | Some root -> (
      let allowlist =
        if Sys.file_exists "analysis-allowlist.txt" then
          Check.Analysis.load_allowlist "analysis-allowlist.txt"
        else Ok Check.Analysis.empty_allowlist
      in
      match allowlist with
      | Error e -> part "analysis allowlist" false e
      | Ok allowlist ->
          let r = Check.Analysis.run ~allowlist ~root () in
          List.iter
            (fun f -> Format.printf "%a@." Check.Analysis.pp_finding f)
            r.Check.Analysis.r_findings;
          part "analysis lib/"
            (r.Check.Analysis.r_findings = [] && r.Check.Analysis.r_stale_allow = [])
            (Printf.sprintf "%d units, %d findings, %d allowlisted, %d stale"
               r.Check.Analysis.r_units
               (List.length r.Check.Analysis.r_findings)
               (List.length r.Check.Analysis.r_allowlisted)
               (List.length r.Check.Analysis.r_stale_allow))));
  (* 3. tie-order exploration of the conformance-checked scenarios *)
  let permutations = if quick then min permutations 120 else permutations in
  let explore name scenario =
    match Check.Explore.run ~permutations scenario with
    | outcome ->
        part
          (Printf.sprintf "explore %s" name)
          (Check.Explore.consistent outcome)
          (Format.asprintf "%a" Check.Explore.pp_outcome outcome)
    | exception Check.Fsm.Conformance msg ->
        part (Printf.sprintf "explore %s" name) false ("conformance: " ^ msg)
  in
  explore "two-subflow-transfer" Check.Scenarios.two_subflow_transfer;
  explore "close-wait-drain" Check.Scenarios.close_wait_deadlock;
  explore "post-fin-subflow" Check.Scenarios.post_fin_subflow;
  if !failures > 0 then begin
    Printf.printf "smapp check: %d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf "smapp check: all passed\n"

let check_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Cap exploration at 120 permutations per scenario (CI).")
  in
  let permutations =
    Arg.(
      value & opt int 300
      & info [ "permutations" ]
          ~doc:"Tie-order permutations to explore per scenario.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Correctness tooling: FSM table self-check, typed analysis, and \
          tie-order race exploration")
    Term.(const run_check $ quick $ permutations)

(* --- analyze: typed domain-safety & determinism pass -------------------------- *)

let run_analyze root allowlist_file baseline_file json_file =
  let module A = Smapp_check.Analysis in
  let root =
    match root with
    | Some r -> r
    | None -> (
        match A.default_root () with
        | Some r -> r
        | None ->
            prerr_endline
              "smapp analyze: no .cmt artifacts found (run `dune build` first)";
            exit 2)
  in
  let allowlist_file =
    match allowlist_file with
    | Some f -> Some f
    | None ->
        if Sys.file_exists "analysis-allowlist.txt" then
          Some "analysis-allowlist.txt"
        else None
  in
  let allowlist =
    match allowlist_file with
    | None -> A.empty_allowlist
    | Some f -> (
        match A.load_allowlist f with
        | Ok a -> a
        | Error e ->
            prerr_endline ("smapp analyze: bad allowlist: " ^ e);
            exit 2)
  in
  let report = A.run ~allowlist ~root () in
  let gate =
    match baseline_file with
    | None -> report.A.r_findings
    | Some f -> A.regressions ~baseline:(A.load_baseline f) report
  in
  List.iter (fun f -> Format.printf "%a@." A.pp_finding f) report.A.r_findings;
  List.iter
    (fun k -> Format.printf "smapp analyze: stale allowlist entry: %s@." k)
    report.A.r_stale_allow;
  (match json_file with
  | None -> ()
  | Some path ->
      let open Smapp_stats.Json in
      let finding_json f =
        Obj
          [
            ("rule", String (A.rule_id f.A.a_rule));
            ("file", String f.A.a_file);
            ("line", Int f.A.a_line);
            ("col", Int f.A.a_col);
            ("module", String f.A.a_module);
            ("symbol", String f.A.a_symbol);
            ("key", String (A.key f));
            ("message", String f.A.a_message);
          ]
      in
      to_file path
        (Obj
           [
             ("units", Int report.A.r_units);
             ("findings", List (List.map finding_json report.A.r_findings));
             ( "allowlisted",
               List
                 (List.map
                    (fun (f, just) ->
                      Obj
                        [
                          ("key", String (A.key f));
                          ("justification", String just);
                        ])
                    report.A.r_allowlisted) );
             ( "stale_allowlist",
               List (List.map (fun k -> String k) report.A.r_stale_allow) );
             ("new_vs_baseline", List (List.map finding_json gate));
           ]));
  Printf.printf
    "analysis: %d units, %d findings, %d allowlisted, %d stale allowlist \
     entries%s\n"
    report.A.r_units
    (List.length report.A.r_findings)
    (List.length report.A.r_allowlisted)
    (List.length report.A.r_stale_allow)
    (match baseline_file with
    | None -> ""
    | Some _ -> Printf.sprintf ", %d new vs baseline" (List.length gate));
  if gate <> [] then exit 1

let analyze_cmd =
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Directory scanned (recursively) for .cmt artifacts. Defaults to \
             _build/default/lib, then lib.")
  in
  let allowlist =
    Arg.(
      value
      & opt (some string) None
      & info [ "allowlist" ] ~docv:"FILE"
          ~doc:
            "Reviewed suppressions ('<rule-id> <Module.symbol> -- \
             justification' per line). Defaults to analysis-allowlist.txt \
             when present.")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Accepted finding keys, one per line; with this, only findings \
             absent from the file fail the run.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report as JSON.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Typed domain-safety and determinism analysis over the compiled \
          tree: mutable globals, nondeterminism sources, and hot-path \
          allocations, gated by an allowlist with mandatory justifications")
    Term.(const run_analyze $ root $ allowlist $ baseline $ json)

(* --- trace / metrics: the observability front door --------------------------- *)

let exp_conv =
  Arg.enum
    [ ("fig3", `Fig3); ("chaos", `Chaos); ("workload", `Workload); ("fullmesh", `Fullmesh) ]

(* A scaled-down run of each experiment, sized so tracing it stays within
   one ring buffer and finishes in seconds. *)
let run_small exp seed =
  match exp with
  | `Fig3 -> ignore (E.Fig3.run ~seed ~requests:200 ~variant:E.Fig3.Userspace ())
  | `Chaos -> ignore (E.Chaos.run_convergence ~seed ~drop:0.05 ())
  | `Fullmesh -> ignore (E.Fullmesh_recovery.run ~seed ())
  | `Workload ->
      let open Smapp_workload in
      ignore
        (Workload.run { Workload.default_config with Workload.conns = 200; Workload.seed })

let print_trace_report out width =
  write_trace out;
  Printf.printf "\n%s\n" (Obs.Trace.timeline ~width ());
  print_string (Obs.Trace.summary_table ())

let run_trace exp out seed requests width =
  match exp with
  | `Fig3 ->
      (* kernel vs userspace with tracing: the report decomposes the extra
         userspace reaction time into its two Netlink crossings *)
      let b = E.Fig3.traced_breakdown ~seed ~requests () in
      print_trace_report out width;
      let model = E.Fig3.breakdown_model_us b in
      Printf.printf "\nFig 3 reaction-gap decomposition (%d requests):\n"
        b.E.Fig3.b_requests;
      Printf.printf "  measured userspace extra  : %7.2f us\n" b.E.Fig3.b_extra_us;
      Printf.printf "  netlink k->u crossing     : %7.2f us\n" b.E.Fig3.b_up_us;
      Printf.printf "  netlink u->k crossing     : %7.2f us\n" b.E.Fig3.b_down_us;
      Printf.printf "  in-kernel reaction skipped: %7.2f us\n" (-.b.E.Fig3.b_kernel_pm_us);
      (match b.E.Fig3.b_decision_rtt_us with
      | Some d ->
          Printf.printf "  decision round trip       : %7.2f us (event->command->reply)\n" d
      | None -> ());
      let ratio = if b.E.Fig3.b_extra_us = 0.0 then infinity else model /. b.E.Fig3.b_extra_us in
      Printf.printf "  component sum %.2f us = %.0f%% of the measured gap%s\n" model
        (ratio *. 100.)
        (if Float.abs (ratio -. 1.0) <= 0.2 then " (within 20%)" else " (OUTSIDE 20%)");
      if Float.abs (ratio -. 1.0) > 0.2 then exit 1
  | (`Chaos | `Workload | `Fullmesh) as exp ->
      with_obs (fun () ->
          run_small exp seed;
          print_trace_report out width)

let trace_cmd =
  let exp =
    Arg.(
      required
      & pos 0 (some exp_conv) None
      & info [] ~docv:"EXPERIMENT" ~doc:"One of fig3, chaos, workload, fullmesh.")
  in
  let out =
    Arg.(
      value & opt string "smapp_trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Chrome trace output path.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let requests =
    Arg.(value & opt int 300 & info [ "requests" ] ~doc:"GET count (fig3 only).")
  in
  let width =
    Arg.(value & opt int 72 & info [ "width" ] ~doc:"ASCII timeline width in columns.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an experiment with tracing on: Chrome trace file, ASCII span \
          timeline, and per-span statistics")
    Term.(const run_trace $ exp $ out $ seed $ requests $ width)

let run_metrics exp seed json =
  let saved = Atomic.get Obs.Metrics.enabled in
  Atomic.set Obs.Metrics.enabled true;
  Obs.Metrics.clear ();
  Fun.protect
    ~finally:(fun () -> Atomic.set Obs.Metrics.enabled saved)
    (fun () -> run_small exp seed);
  if json then print_endline (Stats.Json.to_string (Obs.Metrics.to_json ()))
  else print_string (Obs.Metrics.to_prometheus ())

let metrics_cmd =
  let exp =
    Arg.(
      value
      & pos 0 exp_conv `Workload
      & info [] ~docv:"EXPERIMENT" ~doc:"One of fig3, chaos, workload, fullmesh.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the registry as a JSON array instead of the Prometheus \
             text exposition (for benchdiff and CI).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run an experiment with the metrics registry on and print the \
          Prometheus text exposition (or JSON with $(b,--json))")
    Term.(const run_metrics $ exp $ seed $ json)

(* --- prof: the profiling front door ------------------------------------------- *)

(* Run the scale-out workload with [Smapp_obs.Prof] on and print the
   self-time/allocation report. The run sits inside one root frame, and
   the same call is bracketed externally with the wall clock and
   [Gc.allocated_bytes]: the report's totals must reconcile with both
   within 5%, or the profiler's attribution can't be trusted and we exit
   non-zero. (The bound is loose because the external bracket also sees
   the profiler's own bookkeeping and anything outside event dispatch.) *)
let run_prof conns seed shards minor_heap json =
  apply_minor_heap minor_heap;
  if shards < 1 then invalid_arg "--shards expects a positive count";
  let open Smapp_workload in
  let config =
    {
      Workload.default_config with
      Workload.conns;
      arrival_rate = float_of_int conns;
      flow_dist = Workload.Fixed 200_000;
      seed;
      shards;
    }
  in
  Printf.printf "prof: %d conns, seed %d%s, profiling on\n\n" conns seed
    (if shards > 1 then Printf.sprintf ", %d shards (sequential windows)" shards
     else "");
  let saved = Atomic.get Obs.Prof.enabled in
  Atomic.set Obs.Prof.enabled true;
  Obs.Prof.reset ();
  let result, wall_ns, alloc_bytes =
    Fun.protect
      ~finally:(fun () -> Atomic.set Obs.Prof.enabled saved)
      (fun () ->
        let a0 = Gc.allocated_bytes () in
        let t0 = Unix.gettimeofday () in
        let r = Obs.Prof.with_frame "run" (fun () -> Workload.run config) in
        let t1 = Unix.gettimeofday () in
        let a1 = Gc.allocated_bytes () in
        (r, (t1 -. t0) *. 1e9, a1 -. a0))
  in
  let rep = Obs.Prof.report () in
  print_string (Obs.Prof.render rep);
  Printf.printf "\nengine: %d events dispatched (profiler saw %d)\n"
    result.Workload.engine_events rep.Obs.Prof.p_events;
  (* reconciliation: report totals vs the external bracket *)
  let rel a b = if b = 0.0 then Float.abs a else Float.abs (a -. b) /. b in
  let self_ns = List.fold_left (fun acc f -> acc +. Obs.Prof.sum_self_ns f) 0.0 rep.Obs.Prof.p_frames in
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
  (match json with
  | None -> ()
  | Some path ->
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
      Printf.printf "wrote %s\n" path);
  Obs.Prof.reset ();
  if ns_err > 0.05 || bytes_err > 0.05 || self_err > 0.05 then begin
    Printf.printf "prof: reconciliation outside 5%% — attribution untrustworthy\n";
    exit 1
  end

let prof_cmd =
  let conns =
    Arg.(value & opt int 500 & info [ "conns" ] ~doc:"Connections to launch.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the scenario across $(docv) engines (windows run \
             sequentially so all profiling lands in one scope).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the machine-readable report to $(docv).")
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Run the scale-out workload under the profiler: per-subsystem \
          self-time and allocation, per-event-class costs, GC pauses; exits \
          non-zero if the report fails to reconcile with wall time and \
          Gc.allocated_bytes within 5%")
    Term.(const run_prof $ conns $ seed $ shards $ minor_heap_arg $ json)

let main_cmd =
  let doc = "SMAPP experiments: smart Multipath TCP path management" in
  Cmd.group (Cmd.info "smapp" ~doc)
    [
      fig2a_cmd;
      fig2b_cmd;
      fig2c_cmd;
      fig3_cmd;
      backoff_cmd;
      fullmesh_cmd;
      chaos_cmd;
      workload_cmd;
      check_cmd;
      analyze_cmd;
      trace_cmd;
      metrics_cmd;
      prof_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
