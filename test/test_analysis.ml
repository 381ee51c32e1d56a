(* The typed analyzer (Smapp_check.Analysis) run over the fixture libraries
   in test/fixtures: exact finding keys for the known-hazard modules and
   the export surface in fixtures/exports, zero findings for the
   sanctioned-pattern module, allowlist mechanics, and stability of the
   classifier under module reordering.

   The fixtures are analyzed from their .cmt/.cmti artifacts, which dune
   puts under fixtures/.analysis_fixtures.objs/ and
   fixtures/exports/.export_fixtures.objs/ relative to the test's cwd
   (_build/default/test); linking the fixture libraries into this binary is
   what guarantees they are built. *)

module Analysis = Smapp_check.Analysis

(* "fixtures" when run by dune runtest (cwd _build/default/test); the
   full build path when the binary is exec'd from the checkout root *)
let fixture_roots =
  [ "fixtures"; Filename.concat "_build" "default/test/fixtures" ]

let locate_fixtures () =
  List.find_map
    (fun r ->
      match Analysis.scan ~root:r with [] -> None | files -> Some files)
    fixture_roots

let fixture_files () =
  match locate_fixtures () with
  | Some files -> files
  | None ->
      Alcotest.failf
        "no .cmt fixtures under %s (cwd %s); was the fixture library built?"
        (String.concat " or " fixture_roots)
        (Sys.getcwd ())

(* The naked-failwith / naked-print keys planted in fx_naked.ml: the
   typed rules match Stdlib.failwith and assert false, Printf.printf/eprintf,
   print_/prerr_endline and print_/prerr_string, applied or not. *)
let naked_failwith_keys =
  [
    "naked-failwith Analysis_fixtures.Fx_naked.fail_applied:failwith";
    "naked-failwith Analysis_fixtures.Fx_naked.fail_unapplied:failwith";
    "naked-failwith Analysis_fixtures.Fx_naked.unreachable:assert-false";
  ]

let naked_print_keys =
  [
    "naked-print Analysis_fixtures.Fx_naked.out_printf:Printf.printf";
    "naked-print Analysis_fixtures.Fx_naked.err_eprintf:Printf.eprintf";
    "naked-print Analysis_fixtures.Fx_naked.out_endline:print_endline";
    "naked-print Analysis_fixtures.Fx_naked.err_endline_unapplied:prerr_endline";
    "naked-print Analysis_fixtures.Fx_naked.out_string:print_string";
    "naked-print Analysis_fixtures.Fx_naked.err_string:prerr_string";
  ]

(* Fx_exports' dead surface: an export only its own unit uses, one nobody
   uses, and an optional parameter no call passes. The export a sibling
   calls, the one reached through [module E = Fx_exports] and the optional
   parameter one call passes stay clean. *)
let dead_export_keys =
  [
    "dead-export Export_fixtures.Fx_exports.unused";
    "dead-export Export_fixtures.Fx_exports.used_only_inside";
  ]

let dead_optional_keys = [ "dead-optional Export_fixtures.Fx_exports.tuned:?never" ]

(* Fields no unit reads: Fx_exports' [never] (built, matched only as
   [_]) and [written] (only ever assigned), Fx_hazard's [cell.v] (built,
   never read) and Fx_uids' [unread], whose .cmti uid is the .cmt uid of
   a field its unit reads. Fields read by [r.f], by a record pattern, by
   a [{ r with ... }] copy, only from a sibling unit and only through a
   re-export of their record stay clean. *)
let dead_field_keys =
  [
    "dead-field Analysis_fixtures.Fx_hazard.cell.v";
    "dead-field Export_fixtures.Fx_exports.fields.never";
    "dead-field Export_fixtures.Fx_exports.fields.written";
    "dead-field Export_fixtures.Fx_uids.t.unread";
  ]

(* Every hazard planted in fx_hazard.ml / fx_allowlisted.ml / fx_naked.ml /
   exports/fx_exports.mli, and nothing else — fx_safe.ml, fx_arena.ml,
   the export fixture's callers and the library wrappers must contribute
   zero keys. *)
let expected_keys =
  List.sort String.compare
    (naked_failwith_keys @ naked_print_keys @ dead_export_keys @ dead_optional_keys
    @ dead_field_keys
    @ [
        "mutable-global Analysis_fixtures.Fx_hazard.table";
        "mutable-global Analysis_fixtures.Fx_hazard.counter";
        "mutable-global Analysis_fixtures.Fx_hazard.cell";
        "mutable-global Analysis_fixtures.Fx_allowlisted.scratch";
        "nondet-random Analysis_fixtures.Fx_hazard.roll:Random.int";
        "nondet-wallclock Analysis_fixtures.Fx_hazard.stamp:Sys.time";
        "nondet-domain-id Analysis_fixtures.Fx_hazard.domain_tag:Domain.self";
        "hashtbl-order Analysis_fixtures.Fx_hazard.iter_all:Hashtbl.iter";
        "poly-compare-seq Analysis_fixtures.Fx_hazard.seq_leaks:=";
        "hot-alloc Analysis_fixtures.Fx_hazard.spin:closure";
        "hot-alloc Analysis_fixtures.Fx_hazard.spin:record";
      ])

let test_exact_findings () =
  let r = Analysis.run_files (fixture_files ()) in
  Alcotest.(check (list string))
    "exact finding keys" expected_keys (Analysis.keys r);
  Alcotest.(check int)
    "nothing allowlisted without an allowlist" 0
    (List.length r.Analysis.r_allowlisted);
  Alcotest.(check (list string)) "no stale entries" [] r.Analysis.r_stale_allow;
  Alcotest.(check bool)
    "all fixture units loaded" true
    (r.Analysis.r_units >= 5)

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rule_keys rule =
  let r = Analysis.run_files (fixture_files ()) in
  List.filter (has_prefix ~prefix:(rule ^ " ")) (Analysis.keys r)

(* Exactly the planted keys: Printf.sprintf, Format.fprintf and assert
   cond in fx_safe.ml must not fire either rule. *)
let test_naked_failwith () =
  Alcotest.(check (list string))
    "naked-failwith keys"
    (List.sort String.compare naked_failwith_keys)
    (rule_keys "naked-failwith")

let test_naked_print () =
  Alcotest.(check (list string))
    "naked-print keys"
    (List.sort String.compare naked_print_keys)
    (rule_keys "naked-print")

let test_dead_exports () =
  Alcotest.(check (list string)) "dead-export keys" dead_export_keys (rule_keys "dead-export");
  Alcotest.(check (list string))
    "dead-optional keys" dead_optional_keys (rule_keys "dead-optional")

let test_dead_fields () =
  Alcotest.(check (list string)) "dead-field keys" dead_field_keys (rule_keys "dead-field")

let test_safe_clean () =
  let r = Analysis.run_files (fixture_files ()) in
  List.iter
    (fun k ->
      if has_sub ~sub:"Fx_safe" k then
        Alcotest.failf "sanctioned pattern flagged: %s" k;
      (* the arena'd take/stamp/put cycle is the allocation-free hot-path
         idiom the hot-alloc rule must not fire on *)
      if has_sub ~sub:"Fx_arena" k then
        Alcotest.failf "arena reuse pattern flagged: %s" k)
    (Analysis.keys r)

let scratch_key = "mutable-global Analysis_fixtures.Fx_allowlisted.scratch"

let test_allowlist () =
  let allow =
    Analysis.allowlist_of_entries
      [
        (scratch_key, "test scratch buffer, single-domain");
        ("mutable-global Analysis_fixtures.Fx_missing.gone", "stale on purpose");
      ]
  in
  let r = Analysis.run_files ~allowlist:allow (fixture_files ()) in
  Alcotest.(check bool)
    "suppressed key absent from findings" false
    (List.mem scratch_key (Analysis.keys r));
  (match
     List.find_opt
       (fun (f, _) -> Analysis.key f = scratch_key)
       r.Analysis.r_allowlisted
   with
  | Some (_, just) ->
      Alcotest.(check string)
        "justification threaded through" "test scratch buffer, single-domain"
        just
  | None -> Alcotest.fail "suppressed finding not reported as allowlisted");
  Alcotest.(check (list string))
    "unmatched entry reported stale"
    [ "mutable-global Analysis_fixtures.Fx_missing.gone" ]
    r.Analysis.r_stale_allow

let write_temp content =
  let path = Filename.temp_file "smapp_analysis" ".txt" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let test_load_allowlist () =
  (* a loaded file behaves exactly like allowlist_of_entries: the matching
     key is suppressed with its justification threaded through *)
  let ok = write_temp ("# comment\n\n" ^ scratch_key ^ " -- guarded by lock\n") in
  (match Analysis.load_allowlist ok with
  | Ok allow -> (
      let r = Analysis.run_files ~allowlist:allow (fixture_files ()) in
      Alcotest.(check bool)
        "loaded entry suppresses" false
        (List.mem scratch_key (Analysis.keys r));
      match
        List.find_opt
          (fun (f, _) -> Analysis.key f = scratch_key)
          r.Analysis.r_allowlisted
      with
      | Some (_, just) ->
          Alcotest.(check string) "justification" "guarded by lock" just
      | None -> Alcotest.fail "loaded entry not applied")
  | Error e -> Alcotest.failf "valid allowlist rejected: %s" e);
  Sys.remove ok;
  let missing = write_temp "mutable-global Foo.bar\n" in
  (match Analysis.load_allowlist missing with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "justification must be mandatory");
  Sys.remove missing;
  let malformed = write_temp "mutable-global -- why\n" in
  (match Analysis.load_allowlist malformed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "entry without a symbol must be rejected");
  Sys.remove malformed

(* Keys are content-based (rule + qualified symbol), so shuffling the
   order the .cmt files are presented in must not change the report. *)
let prop_order_stable =
  QCheck.Test.make ~count:16 ~name:"finding keys stable under module reordering"
    QCheck.(small_list small_nat)
    (fun swaps ->
      let arr = Array.of_list (Option.value ~default:[] (locate_fixtures ())) in
      let n = Array.length arr in
      n = 0
      ||
      (List.iteri
         (fun i k ->
           let a = i mod n and b = k mod n in
           let t = arr.(a) in
           arr.(a) <- arr.(b);
           arr.(b) <- t)
         swaps;
       Analysis.keys (Analysis.run_files (Array.to_list arr)) = expected_keys))

let () =
  Alcotest.run "analysis"
    [
      ( "typed pass",
        [
          Alcotest.test_case "exact findings on fixtures" `Quick
            test_exact_findings;
          Alcotest.test_case "sanctioned patterns classify clean" `Quick
            test_safe_clean;
          Alcotest.test_case "naked-failwith keys" `Quick test_naked_failwith;
          Alcotest.test_case "naked-print keys" `Quick test_naked_print;
          Alcotest.test_case "dead-export and dead-optional keys" `Quick
            test_dead_exports;
          Alcotest.test_case "dead-field keys" `Quick test_dead_fields;
          Alcotest.test_case "allowlist suppression and stale entries" `Quick
            test_allowlist;
          Alcotest.test_case "allowlist parsing" `Quick test_load_allowlist;
          QCheck_alcotest.to_alcotest prop_order_stable;
        ] );
    ]
