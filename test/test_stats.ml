(* Tests for summaries, CDFs, time series, tables and the JSON emitter. *)

open Smapp_stats

let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_summary_basic () =
  let s = Summary.of_samples [ 1.0; 2.0; 3.0; 4.0 ] in
  checkf "mean" 2.5 s.Summary.mean;
  checkf "min" 1.0 s.Summary.min;
  checkf "max" 4.0 s.Summary.max;
  checki "count" 4 s.Summary.count;
  (* sample stddev of 1..4 = sqrt(5/3) *)
  checkf "stddev" (sqrt (5.0 /. 3.0)) s.Summary.stddev

let test_summary_singleton () =
  let s = Summary.of_samples [ 42.0 ] in
  checkf "mean" 42.0 s.Summary.mean;
  checkf "stddev 0" 0.0 s.Summary.stddev

let test_summary_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_samples: empty") (fun () ->
      ignore (Summary.of_samples []))

let test_percentile () =
  let samples () = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "p0" 1.0 (Summary.percentile (samples ()) 0.0);
  checkf "p50" 3.0 (Summary.percentile (samples ()) 50.0);
  checkf "p100" 5.0 (Summary.percentile (samples ()) 100.0);
  checkf "p25 interpolated" 2.0 (Summary.percentile (samples ()) 25.0);
  checkf "p10 interpolated" 1.4 (Summary.percentile (samples ()) 10.0)

let test_cdf_eval () =
  let cdf = Cdf.of_samples [ 1.0; 2.0; 3.0; 4.0 ] in
  checkf "below" 0.0 (Cdf.eval cdf 0.5);
  checkf "at 2" 0.5 (Cdf.eval cdf 2.0);
  checkf "mid" 0.5 (Cdf.eval cdf 2.5);
  checkf "above" 1.0 (Cdf.eval cdf 10.0)

let test_cdf_quantile () =
  let cdf = Cdf.of_samples [ 10.0; 20.0; 30.0; 40.0 ] in
  checkf "q0.25" 10.0 (Cdf.quantile cdf 0.25);
  checkf "q0.5" 20.0 (Cdf.quantile cdf 0.5);
  checkf "q1" 40.0 (Cdf.quantile cdf 1.0)

let cdf_props =
  let arb = QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-100.) 100.)) in
  [
    QCheck.Test.make ~name:"cdf is monotone" ~count:200 arb (fun xs ->
        QCheck.assume (xs <> []);
        let cdf = Cdf.of_samples xs in
        let points = Cdf.points cdf in
        let rec mono = function
          | (x1, f1) :: ((x2, f2) :: _ as rest) ->
              x1 <= x2 && f1 <= f2 && mono rest
          | _ -> true
        in
        mono points);
    QCheck.Test.make ~name:"cdf ends at 1" ~count:200 arb (fun xs ->
        QCheck.assume (xs <> []);
        let cdf = Cdf.of_samples xs in
        abs_float (Cdf.eval cdf (Cdf.max_value cdf) -. 1.0) < 1e-9);
    QCheck.Test.make ~name:"quantile inverts eval" ~count:200
      (QCheck.pair arb (QCheck.float_range 0.01 1.0))
      (fun (xs, q) ->
        QCheck.assume (xs <> []);
        let cdf = Cdf.of_samples xs in
        let x = Cdf.quantile cdf q in
        Cdf.eval cdf x >= q -. 1e-9);
  ]

let test_table () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.to_string t in
  checkb "header present" true (String.length s > 0);
  checkb "contains alpha" true
    (String.length s >= 5
    &&
    let re_found = ref false in
    String.iteri
      (fun i _ -> if i + 5 <= String.length s && String.sub s i 5 = "alpha" then re_found := true)
      s;
    !re_found)

let test_table_arity () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_ascii_plot_smoke () =
  let cdf = Cdf.of_samples [ 1.0; 2.0; 3.0 ] in
  let s = Ascii_plot.cdfs [ ("test", cdf) ] in
  checkb "renders" true (String.length s > 100);
  let sc = Ascii_plot.scatter [ ("pts", [ (0.0, 0.0); (1.0, 1.0) ]) ] in
  checkb "scatter renders" true (String.length sc > 100)

(* The emitter's whole contract in one document: string escapes (quote,
   backslash, the named controls, \u00XX for the rest), integral floats
   without a fraction, non-finite floats as null, and nesting. *)
let test_json_to_string () =
  let open Json in
  let doc =
    Obj
      [
        ("s", String "q\"b\\n\nt\tr\r\001");
        ("int", Int (-3));
        ("float", List [ Float 2.5; Float 4.0; Float 1e20; Float (-0.125) ]);
        ("nonfinite", List [ Float nan; Float infinity; Float neg_infinity ]);
        ("nested", List [ Null; Bool true; Obj [ ("e", List []) ]; Obj [] ]);
      ]
  in
  Alcotest.(check string)
    "pinned"
    {|{"s":"q\"b\\n\nt\tr\r\u0001","int":-3,"float":[2.5,4,1e+20,-0.125],"nonfinite":[null,null,null],"nested":[null,true,{"e":[]},{}]}|}
    (to_string doc)

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "empty raises" `Quick test_summary_empty_raises;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval" `Quick test_cdf_eval;
          Alcotest.test_case "quantile" `Quick test_cdf_quantile;
        ]
        @ List.map QCheck_alcotest.to_alcotest cdf_props );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
      ("ascii_plot", [ Alcotest.test_case "smoke" `Quick test_ascii_plot_smoke ]);
      ("json", [ Alcotest.test_case "to_string pinned" `Quick test_json_to_string ]);
    ]
