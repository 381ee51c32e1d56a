(* The smapp command-line tool: run any of the paper's experiments and print
   its table/figure as text, run the whole bench, or check the tree. The
   experiments themselves live in Run, one runner each; this file only
   turns flags into runner calls. *)

open Cmdliner
module E = Smapp_experiments
module Stats = Smapp_stats
module Obs = Smapp_obs
module A = Smapp_check.Analysis

(* --- arguments shared across subcommands ------------------------------------- *)

let positive =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive count, got %S" s))),
      Format.pp_print_int )

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value & opt positive 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run the experiment's independent sweeps across $(docv) domains.")

let file_arg names doc = Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)
let trace_arg = file_arg [ "trace" ] "Record a Chrome trace of the run into $(docv)."

let shards_arg doc =
  Arg.(value & opt positive 1 & info [ "shards" ] ~docv:"N" ~doc)

(* --- the paper's figures ------------------------------------------------------ *)

let fig2a_cmd =
  Cmd.v (Cmd.info "fig2a" ~doc:"Smart backup trace (Fig 2a)")
    Term.(const (fun seed -> ignore (Run.fig2a ~seed () : E.Fig2a.result)) $ seed_arg)

let fig2b_cmd =
  let runs = Arg.(value & opt int 5 & info [ "runs" ] ~doc:"Seeds per curve.") in
  let blocks = Arg.(value & opt int 30 & info [ "blocks" ] ~doc:"Blocks per run.") in
  Cmd.v (Cmd.info "fig2b" ~doc:"Smart streaming CDFs (Fig 2b)")
    Term.(const (fun runs blocks jobs -> Run.fig2b ~jobs ~runs ~blocks) $ runs $ blocks $ jobs_arg)

let fig2c_cmd =
  let runs = Arg.(value & opt int 20 & info [ "runs" ] ~doc:"Runs per variant.") in
  let mb = Arg.(value & opt int 100 & info [ "mb" ] ~doc:"File size in MB.") in
  Cmd.v (Cmd.info "fig2c" ~doc:"ECMP refresh controller vs ndiffports (Fig 2c)")
    Term.(
      const (fun runs mb jobs -> ignore (Run.fig2c ~jobs ~runs ~mb : E.Fig2c.result list))
      $ runs $ mb $ jobs_arg)

let fig3_cmd =
  let requests = Arg.(value & opt int 1000 & info [ "requests" ] ~doc:"GET count.") in
  let stress =
    Arg.(value & opt float Run.fig3_stress & info [ "stress" ] ~doc:"CPU stress multiplier.")
  in
  Cmd.v (Cmd.info "fig3" ~doc:"Kernel vs userspace PM latency (Fig 3)")
    Term.(
      const (fun requests stress jobs ->
          ignore (Run.fig3 ~jobs ~requests ~stress : E.Fig3.result list))
      $ requests $ stress $ jobs_arg)

let backoff_cmd =
  let loss = Arg.(value & opt float 0.30 & info [ "loss" ] ~doc:"Loss ratio.") in
  Cmd.v (Cmd.info "backoff" ~doc:"RFC-style backup failover latency (4.2 text)")
    Term.(const (fun loss -> Run.backoff ~loss ()) $ loss)

let fullmesh_cmd =
  Cmd.v (Cmd.info "fullmesh" ~doc:"Fullmesh controller failure recovery (4.1)")
    Term.(const (fun seed -> Run.fullmesh ~seed ()) $ seed_arg)

(* --- chaos ---------------------------------------------------------------------- *)

let run_chaos scenario seed drop grid shards jobs trace =
  let tracing = trace <> None in
  let dataplane scenarios =
    let results = Run.chaos_dataplane ~jobs ~tracing ~grid ~seed ~shards scenarios in
    if not (List.for_all E.Chaos.dataplane_invariants_ok results) then begin
      Printf.printf "graceful-degradation invariants VIOLATED\n";
      exit 1
    end
  in
  let body () =
    match scenario with
    | `Control -> Run.chaos_control ~jobs ~tracing ~grid ~seed ~drop ()
    | `Dataplane -> dataplane [ `Mobile; `Degrade; `Dualfade; `Regionfail ]
    | (`Mobile | `Degrade | `Dualfade | `Regionfail) as s -> dataplane [ s ]
  in
  match trace with
  | None -> body ()
  | Some out ->
      Obs.Scope.recording (fun () ->
          body ();
          Run.write_trace out)

let chaos_cmd =
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
    shards_arg
      "Run shardable data-plane scenarios across $(docv) engines \
       (conservative windows); results are byte-identical to --shards 1."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault injection: control-plane convergence and data-plane degradation")
    Term.(
      const run_chaos $ scenario $ seed_arg $ drop $ grid $ shards $ jobs_arg $ trace_arg)

(* --- workload ------------------------------------------------------------------- *)

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

let run_workload conns arrival_rate flow_dist controller clients servers paths shards
    seed runs jobs trace =
  let open Smapp_workload.Workload in
  let config =
    {
      default_config with
      conns;
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
  let rs = Run.workload ~jobs ?trace ~runs config in
  if List.exists (fun r -> r.completed < r.launched) rs then exit 1

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
      value
      & opt (enum [ ("none", `None); ("fullmesh", `Fullmesh); ("backup", `Backup) ]) `Fullmesh
      & info [ "controller" ] ~doc:"Per-connection controller: none, fullmesh or backup.")
  in
  let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Client hosts.") in
  let servers = Arg.(value & opt int 4 & info [ "servers" ] ~doc:"Server hosts.") in
  let paths = Arg.(value & opt int 2 & info [ "paths" ] ~doc:"Disjoint paths.") in
  let shards =
    shards_arg
      "Partition the scenario across $(docv) engines under the \
       conservative-window protocol; results are byte-identical to --shards \
       1. With --runs 1, windows execute across min(N, --jobs) domains."
  in
  let runs =
    Arg.(
      value & opt positive 1
      & info [ "runs" ] ~doc:"Repeat with consecutive seeds; FCTs are pooled.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Scale-out traffic: many connections under per-connection controllers")
    Term.(
      const run_workload $ conns $ arrival_rate $ flow_dist $ controller $ clients
      $ servers $ paths $ shards $ seed_arg $ runs $ jobs_arg $ trace_arg)

(* --- check / analyze: the correctness tooling ------------------------------------ *)

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
  (* 2. tie-order exploration of the conformance-checked scenarios *)
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
         "Correctness tooling: FSM table self-check and tie-order race \
          exploration (the typed analysis is `smapp analyze`)")
    Term.(const run_check $ quick $ permutations)

(* The allowlist: [file], else analysis-allowlist.txt when present, else
   none. A file that fails to parse stops the run: silently analyzing
   without it would change the findings count without warning. *)
let load_allowlist file =
  let default = "analysis-allowlist.txt" in
  match if file = None && Sys.file_exists default then Some default else file with
  | None -> A.empty_allowlist
  | Some f -> (
      match A.load_allowlist f with
      | Ok a -> a
      | Error e ->
          Printf.eprintf "smapp: bad allowlist: %s\n" e;
          exit 2)

let run_analyze root allowlist json_file =
  let root =
    match (root, A.default_root ()) with
    | Some r, _ | None, Some r -> r
    | None, None ->
        prerr_endline "smapp analyze: no .cmt artifacts found (run `dune build @analysis`)";
        exit 2
  in
  let report = A.run ~allowlist:(load_allowlist allowlist) ~root () in
  List.iter (fun f -> Format.printf "%a@." A.pp_finding f) report.A.r_findings;
  List.iter (Printf.printf "stale allowlist entry: %s\n") report.A.r_stale_allow;
  Printf.printf "analysis: %d units, %d findings, %d allowlisted, %d stale allowlist entries\n"
    report.A.r_units
    (List.length report.A.r_findings)
    (List.length report.A.r_allowlisted)
    (List.length report.A.r_stale_allow);
  Option.iter
    (fun path ->
      let open Stats.Json in
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
                      Obj [ ("key", String (A.key f)); ("justification", String just) ])
                    report.A.r_allowlisted) );
             ("stale_allowlist", List (List.map (fun k -> String k) report.A.r_stale_allow));
           ]))
    json_file;
  if report.A.r_findings <> [] || report.A.r_stale_allow <> [] then exit 1

let analyze_cmd =
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Directory scanned (recursively) for .cmt artifacts; every .cmt \
             under its parent directory counts as a user of their exports. \
             Defaults to _build/default/lib, then lib.")
  in
  let allowlist =
    file_arg [ "allowlist" ]
      "Reviewed suppressions ('<rule-id> <Module.symbol> -- justification' per \
       line). Defaults to analysis-allowlist.txt when present; a file that \
       fails to parse stops the run."
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Typed analysis over the compiled tree: mutable globals, \
          nondeterminism sources, hot-path allocations, dead exports and \
          never-passed optional parameters, gated by an allowlist with \
          mandatory justifications; exits non-zero on any unsuppressed \
          finding or stale allowlist entry. `dune build @analysis` runs it \
          after building every unit's .cmt.")
    Term.(
      const run_analyze $ root $ allowlist
      $ file_arg [ "json" ] "Write the full report as JSON.")

(* --- trace / metrics: the observability front door ------------------------------- *)

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
  Run.write_trace out;
  Printf.printf "\n%s\n" (Obs.Trace.timeline ~width ());
  print_string (Obs.Trace.summary_table ())

let run_trace exp out seed requests width =
  match exp with
  | `Fig3 ->
      (* kernel vs userspace with tracing: the report decomposes the extra
         userspace reaction time into its two Netlink crossings *)
      let b = E.Fig3.traced_breakdown ~seed ~requests () in
      print_trace_report out width;
      if Float.abs (Run.print_breakdown b -. 1.0) > 0.2 then exit 1
  | (`Chaos | `Workload | `Fullmesh) as exp ->
      Obs.Scope.recording (fun () ->
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
    Term.(const run_trace $ exp $ out $ seed_arg $ requests $ width)

let run_metrics exp seed json =
  Obs.Scope.recording (fun () -> run_small exp seed);
  if json then print_endline (Stats.Json.to_string (Obs.Metrics.to_json ()))
  else print_string (Obs.Metrics.to_prometheus ())

let metrics_cmd =
  let exp =
    Arg.(
      value
      & pos 0 exp_conv `Workload
      & info [] ~docv:"EXPERIMENT" ~doc:"One of fig3, chaos, workload, fullmesh.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the registry as a JSON array instead of the Prometheus \
             text exposition, for tools that read metrics without parsing \
             text.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run an experiment with the metrics registry on and print the \
          Prometheus text exposition (or JSON with $(b,--json))")
    Term.(const run_metrics $ exp $ seed_arg $ json)

(* --- prof: the profiling front door ---------------------------------------------- *)

let prof_cmd =
  let conns =
    Arg.(value & opt int 500 & info [ "conns" ] ~doc:"Connections to launch.")
  in
  let shards =
    shards_arg
      "Shard the scenario across $(docv) engines (windows run sequentially \
       so all profiling lands in one scope)."
  in
  let run conns seed shards json =
    if not (Run.prof ?json ~conns ~seed ~shards ()) then exit 1
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Run the scale-out workload under the profiler: per-subsystem \
          self-time and allocation, per-event-class costs, GC pauses; exits \
          non-zero if the report fails to reconcile with wall time and \
          Gc.allocated_bytes within 5%")
    Term.(
      const run $ conns $ seed_arg $ shards
      $ file_arg [ "json" ] "Write the machine-readable report to $(docv).")

(* --- bench: every figure and BENCH.json ------------------------------------------- *)

let bench_cmd =
  let scale =
    Arg.(
      value
      & vflag Bench.Default
          [
            (Bench.Quick, info [ "quick" ] ~doc:"Smoke scale (what CI runs).");
            ( Bench.Full,
              info [ "full" ] ~doc:"Paper scale everywhere (100 MB files, 1000 GETs)." );
          ])
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Every figure plus the ablation sweeps; writes their metrics to \
          BENCH.json. The output is the same at any $(b,--jobs).")
    Term.(const Bench.run $ scale $ jobs_arg)

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
      bench_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
