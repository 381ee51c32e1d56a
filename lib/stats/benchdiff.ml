(* BENCH.json regression sentinel: compare a current bench run against the
   committed BENCH_BASELINE.json under per-metric tolerance rules.

   Metrics are addressed as "section.metric". A rule gives a glob pattern,
   a relative tolerance, an absolute slack, and a direction; the first
   matching rule wins, and metrics matching no rule are reported but never
   gate (wall_s and friends vary by machine — only metrics a rule opts in
   are load-bearing). Tolerances encode how machine-dependent each metric
   is: allocation per event and deterministic event counts are properties
   of the compiled program, so they get tight or exact bounds; nanoseconds
   and events/sec depend on the host, so their bounds only catch
   order-of-magnitude blowups. The baseline-update procedure (README) is:
   regenerate and commit in the same PR that knowingly shifts perf. *)

type direction = Higher_is_worse | Lower_is_worse | Exact

type rule = {
  r_pattern : string; (* glob over "section.metric"; '*' matches any run *)
  r_tol : float; (* relative tolerance on (cur - base) / |base| *)
  r_abs : float; (* absolute slack on top, for small-count metrics *)
  r_dir : direction;
}

let rule ?(abs = 0.0) ~tol ~dir pattern =
  { r_pattern = pattern; r_tol = tol; r_abs = abs; r_dir = dir }

(* Why each bound: see DESIGN.md §15 ("tolerance policy"). *)
let default_rules =
  [
    (* Deterministic simulation outputs: any drift is a real change. *)
    rule ~tol:0.0 ~dir:Exact "workload.engine_events";
    rule ~tol:0.0 ~dir:Exact "workload.conns";
    rule ~tol:0.0 ~dir:Exact "workload.completed";
    rule ~tol:0.0 ~dir:Exact "perf.*_events";
    rule ~tol:0.0 ~dir:Exact "shard.*identical";
    rule ~tol:0.0 ~dir:Exact "par.identical";
    rule ~tol:0.0 ~dir:Exact "chaos.dataplane_invariants_ok";
    (* Allocation per event: a property of the compiled program, not the
       host. Tight, with a word of absolute slack for tiny denominators. *)
    rule ~tol:0.10 ~abs:8.0 ~dir:Higher_is_worse "perf.*_bytes_per_event";
    rule ~tol:0.10 ~abs:1.0 ~dir:Higher_is_worse "perf.*_words_per_event";
    (* GC counts: follow allocation but quantized by heap sizing. *)
    rule ~tol:0.35 ~abs:5.0 ~dir:Higher_is_worse "perf.*_minor_gcs";
    rule ~tol:0.50 ~abs:5.0 ~dir:Higher_is_worse "perf.*_major_gcs";
    (* Disabled-profiler overhead: the no-op discipline itself. *)
    rule ~tol:0.05 ~abs:0.05 ~dir:Higher_is_worse "perf.prof_disabled_ratio";
    (* Wall-clock rates: host-dependent; only catch blowups. *)
    rule ~tol:3.0 ~dir:Higher_is_worse "perf.*_ns_per_event";
    rule ~tol:0.75 ~dir:Lower_is_worse "workload.events_per_sec";
    rule ~tol:0.75 ~dir:Lower_is_worse "perf.*_events_per_sec";
  ]

let rec glob_match p pi s si =
  if pi = String.length p then si = String.length s
  else
    match p.[pi] with
    | '*' ->
        glob_match p (pi + 1) s si
        || (si < String.length s && glob_match p pi s (si + 1))
    | c -> si < String.length s && s.[si] = c && glob_match p (pi + 1) s (si + 1)

let find_rule rules key =
  List.find_opt (fun r -> glob_match r.r_pattern 0 key 0) rules

type status = Within | Improved | Regressed | Missing | Untracked

let status_name = function
  | Within -> "within"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Missing -> "missing"
  | Untracked -> "untracked"

type entry = {
  e_key : string;
  e_base : float;
  e_cur : float option;
  e_delta : float; (* relative to |base| (or the absolute delta at base 0) *)
  e_rule : rule option;
  e_status : status;
}

type result = {
  d_base_scale : string;
  d_cur_scale : string;
  d_entries : entry list;
}

(* --- extraction ---------------------------------------------------------------- *)

let bench_scale json =
  match Json.member "scale" json with Some (Json.String s) -> s | _ -> "?"

(* Flatten {sections: [{name, wall_s, metrics}]} to ("section.metric", value),
   file order preserved. *)
let bench_metrics json =
  match Json.member "sections" json with
  | Some (Json.List sections) ->
      List.concat_map
        (fun s ->
          let name =
            match Json.member "name" s with Some (Json.String n) -> n | _ -> "?"
          in
          match Json.member "metrics" s with
          | Some (Json.Obj fields) ->
              List.filter_map
                (fun (k, v) ->
                  match Json.to_float_opt v with
                  | Some f -> Some (name ^ "." ^ k, f)
                  | None -> None)
                fields
          | _ -> [])
        sections
  | _ -> []

(* --- comparison ---------------------------------------------------------------- *)

let classify r ~base ~cur =
  let delta_abs = cur -. base in
  let delta_rel = if base = 0.0 then delta_abs else delta_abs /. Float.abs base in
  let beyond =
    (* outside tolerance in the given signed direction *)
    fun signed_abs signed_rel ->
      signed_rel > r.r_tol && signed_abs > r.r_abs
  in
  let status =
    match r.r_dir with
    | Exact -> if cur = base then Within else Regressed
    | Higher_is_worse ->
        if beyond delta_abs delta_rel then Regressed
        else if beyond (-.delta_abs) (-.delta_rel) then Improved
        else Within
    | Lower_is_worse ->
        if beyond (-.delta_abs) (-.delta_rel) then Regressed
        else if beyond delta_abs delta_rel then Improved
        else Within
  in
  (delta_rel, status)

let compare_bench ?(rules = default_rules) ~baseline ~current () =
  let base_metrics = bench_metrics baseline in
  let cur_metrics = bench_metrics current in
  let entries =
    List.map
      (fun (key, base) ->
        match find_rule rules key with
        | None ->
            let cur = List.assoc_opt key cur_metrics in
            { e_key = key; e_base = base; e_cur = cur; e_delta = 0.0;
              e_rule = None; e_status = Untracked }
        | Some r -> (
            match List.assoc_opt key cur_metrics with
            | None ->
                { e_key = key; e_base = base; e_cur = None; e_delta = 0.0;
                  e_rule = Some r; e_status = Missing }
            | Some cur ->
                let delta, status = classify r ~base ~cur in
                { e_key = key; e_base = base; e_cur = Some cur; e_delta = delta;
                  e_rule = Some r; e_status = status }))
      base_metrics
  in
  {
    d_base_scale = bench_scale baseline;
    d_cur_scale = bench_scale current;
    d_entries = entries;
  }

let scale_ok r = String.equal r.d_base_scale r.d_cur_scale

let regressions r =
  List.filter (fun e -> e.e_status = Regressed || e.e_status = Missing) r.d_entries

let exit_code r = if (not (scale_ok r)) || regressions r <> [] then 1 else 0

(* --- rendering ----------------------------------------------------------------- *)

let dir_name = function
  | Higher_is_worse -> "higher-is-worse"
  | Lower_is_worse -> "lower-is-worse"
  | Exact -> "exact"

let render r =
  let buf = Buffer.create 1024 in
  if not (scale_ok r) then
    Buffer.add_string buf
      (Printf.sprintf
         "SCALE MISMATCH: baseline is %S, current is %S — regenerate the baseline at the same scale\n"
         r.d_base_scale r.d_cur_scale);
  let tracked = List.filter (fun e -> e.e_status <> Untracked) r.d_entries in
  List.iter
    (fun e ->
      let tol =
        match e.e_rule with
        | Some { r_dir = Exact; _ } -> "exact"
        | Some ru -> Printf.sprintf "±%.0f%%" (ru.r_tol *. 100.0)
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-42s %14.4g -> %-14s %+7.1f%%  (%s)\n"
           (status_name e.e_status) e.e_key e.e_base
           (match e.e_cur with Some c -> Printf.sprintf "%.4g" c | None -> "absent")
           (e.e_delta *. 100.0) tol))
    tracked;
  let regs = regressions r in
  Buffer.add_string buf
    (Printf.sprintf "benchdiff: %d tracked metric(s), %d regression(s)%s\n"
       (List.length tracked) (List.length regs)
       (if scale_ok r then "" else ", scale mismatch"));
  Buffer.contents buf

let to_json r =
  let entry_json e =
    Json.Obj
      ([
         ("key", Json.String e.e_key);
         ("status", Json.String (status_name e.e_status));
         ("baseline", Json.Float e.e_base);
         ( "current",
           match e.e_cur with Some c -> Json.Float c | None -> Json.Null );
         ("delta_rel", Json.Float e.e_delta);
       ]
      @
      match e.e_rule with
      | None -> []
      | Some ru ->
          [
            ("tolerance", Json.Float ru.r_tol);
            ("abs_slack", Json.Float ru.r_abs);
            ("direction", Json.String (dir_name ru.r_dir));
          ])
  in
  Json.Obj
    [
      ("baseline_scale", Json.String r.d_base_scale);
      ("current_scale", Json.String r.d_cur_scale);
      ("scale_ok", Json.Bool (scale_ok r));
      ("regressions", Json.Int (List.length (regressions r)));
      ("entries", Json.List (List.map entry_json r.d_entries));
    ]
