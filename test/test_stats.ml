(* Tests for the statistics library: summaries, the paper's fairness
   metrics (Section 4), throughput conversion and table rendering. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let test_summary_basic () =
  let s = Stats.Summary.of_list [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "count" 4 s.Stats.Summary.count;
  check_float "mean" 2.5 s.Stats.Summary.mean;
  check_float "variance" 1.25 s.Stats.Summary.variance;
  check_float "min" 1. s.Stats.Summary.min;
  check_float "max" 4. s.Stats.Summary.max

let test_summary_singleton () =
  let s = Stats.Summary.of_list [ 7. ] in
  check_float "mean" 7. s.Stats.Summary.mean;
  check_float "variance" 0. s.Stats.Summary.variance

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty")
    (fun () -> ignore (Stats.Summary.of_list []))

let test_percentile () =
  let samples = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "median" 3. (Stats.Summary.percentile samples 50.);
  check_float "min" 1. (Stats.Summary.percentile samples 0.);
  check_float "max" 5. (Stats.Summary.percentile samples 100.);
  check_float "interpolated" 1.4 (Stats.Summary.percentile samples 10.)

let test_percentile_endpoints () =
  (* n = 2: p = 0 and p = 100 are exactly the extremes, the midpoint
     interpolates halfway. *)
  let samples = [ 20.; 10. ] in
  check_float "p0" 10. (Stats.Summary.percentile samples 0.);
  check_float "p100" 20. (Stats.Summary.percentile samples 100.);
  check_float "p50" 15. (Stats.Summary.percentile samples 50.);
  (* Negative values must sort below positive ones (Float.compare, not
     the polymorphic compare that once scrambled NaN-adjacent sorts). *)
  check_float "negative p0" (-5.) (Stats.Summary.percentile [ 3.; -5. ] 0.)

let test_summary_nan_rejected () =
  Alcotest.check_raises "of_list"
    (Invalid_argument "Summary.of_list: NaN sample") (fun () ->
      ignore (Stats.Summary.of_list [ 1.; Float.nan ]));
  Alcotest.check_raises "percentile samples"
    (Invalid_argument "Summary.percentile: NaN sample") (fun () ->
      ignore (Stats.Summary.percentile [ 1.; Float.nan ] 50.));
  Alcotest.check_raises "percentile NaN p"
    (Invalid_argument "Summary.percentile: out of range") (fun () ->
      ignore (Stats.Summary.percentile [ 1. ] Float.nan));
  Alcotest.check_raises "percentile p > 100"
    (Invalid_argument "Summary.percentile: out of range") (fun () ->
      ignore (Stats.Summary.percentile [ 1. ] 100.5))

let test_summary_variance_two_points () =
  (* {-1, 1}: mean 0, population variance 1 — the d*d accumulation
     must not lose the sign symmetry the old ( ** 2.) path could. *)
  let s = Stats.Summary.of_list [ -1.; 1. ] in
  check_float "mean" 0. s.Stats.Summary.mean;
  check_float "variance" 1. s.Stats.Summary.variance;
  check_float "stddev" 1. s.Stats.Summary.stddev;
  check_float "min" (-1.) s.Stats.Summary.min

let test_cov () =
  (* Identical samples: no variation. *)
  check_float "zero variation" 0.
    (Stats.Summary.coefficient_of_variation [ 2.; 2.; 2. ]);
  (* mean 2, sd 1 -> CoV 0.5 for {1,3} (population sd). *)
  check_float "cov" 0.5 (Stats.Summary.coefficient_of_variation [ 1.; 3. ])

let summary_props =
  [ QCheck.Test.make ~name:"mean within [min, max]" ~count:300
      QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-100.) 100.))
      (fun samples ->
        let s = Stats.Summary.of_list samples in
        s.Stats.Summary.min <= s.Stats.Summary.mean +. 1e-9
        && s.Stats.Summary.mean <= s.Stats.Summary.max +. 1e-9);
    QCheck.Test.make ~name:"percentile monotone" ~count:300
      QCheck.(
        triple
          (list_of_size (Gen.int_range 1 30) (float_range 0. 100.))
          (float_range 0. 100.) (float_range 0. 100.))
      (fun (samples, p1, p2) ->
        let lo = min p1 p2 and hi = max p1 p2 in
        Stats.Summary.percentile samples lo
        <= Stats.Summary.percentile samples hi +. 1e-9) ]

(* ------------------------------------------------------------------ *)
(* Fairness                                                            *)
(* ------------------------------------------------------------------ *)

let test_normalized () =
  Alcotest.(check (list (float 1e-9)))
    "equal flows normalise to 1" [ 1.; 1.; 1. ]
    (Stats.Fairness.normalized [ 5.; 5.; 5. ]);
  Alcotest.(check (list (float 1e-9)))
    "proportional" [ 0.5; 1.5 ]
    (Stats.Fairness.normalized [ 1.; 3. ])

let test_mean_normalized_groups () =
  (* Two protocols, one starving the other. *)
  let pr = [ 3.; 3. ] and sack = [ 1.; 1. ] in
  let all = pr @ sack in
  check_float "strong group" 1.5 (Stats.Fairness.mean_normalized ~group:pr ~all);
  check_float "weak group" 0.5
    (Stats.Fairness.mean_normalized ~group:sack ~all);
  (* Perfect fairness: both means are 1. *)
  let even = [ 2.; 2. ] in
  check_float "fair" 1.
    (Stats.Fairness.mean_normalized ~group:even ~all:(even @ even))

let test_fairness_cov () =
  let all = [ 1.; 1.; 3.; 3. ] in
  check_float "uniform group has zero CoV" 0.
    (Stats.Fairness.coefficient_of_variation ~group:[ 3.; 3. ] ~all)

let test_jain () =
  check_float "perfect" 1. (Stats.Fairness.jain [ 4.; 4.; 4. ]);
  (* One flow hogging everything among n: index = 1/n. *)
  check_float "worst case" 0.25 (Stats.Fairness.jain [ 8.; 0.; 0.; 0. ])

let fairness_props =
  [ QCheck.Test.make ~name:"normalized mean is 1" ~count:300
      QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.1 100.))
      (fun xs ->
        let tis = Stats.Fairness.normalized xs in
        let mean = List.fold_left ( +. ) 0. tis /. float_of_int (List.length tis) in
        abs_float (mean -. 1.) < 1e-9);
    QCheck.Test.make ~name:"jain in (0, 1]" ~count:300
      QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0. 100.))
      (fun xs ->
        let j = Stats.Fairness.jain xs in
        j > 0. && j <= 1. +. 1e-9) ]

(* ------------------------------------------------------------------ *)
(* Throughput                                                          *)
(* ------------------------------------------------------------------ *)

let test_throughput_mbps () =
  (* 1 MB in 8 seconds = 1 Mb/s. *)
  check_float "conversion" 1. (Stats.Throughput.mbps ~bytes:1_000_000 ~seconds:8.)

let test_throughput_window () =
  check_float "windowed" 2.
    (Stats.Throughput.of_window ~bytes_at_start:500_000 ~bytes_at_end:2_500_000
       ~seconds:8.)

let test_throughput_rejects_backwards () =
  Alcotest.check_raises "backwards counter"
    (Invalid_argument "Throughput.of_window: counter went backwards") (fun () ->
      ignore
        (Stats.Throughput.of_window ~bytes_at_start:10 ~bytes_at_end:5
           ~seconds:1.))

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let table = Stats.Table.create ~columns:[ "name"; "value" ] in
  Stats.Table.add_row table [ "alpha"; "0.995" ];
  Stats.Table.add_float_row table ~decimals:1 "beta" [ 3. ];
  let rendered = Stats.Table.to_string table in
  let has s =
    let n = String.length rendered and m = String.length s in
    let rec scan i = i + m <= n && (String.sub rendered i m = s || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "header present" true (has "name");
  Alcotest.(check bool) "row present" true (has "alpha");
  Alcotest.(check bool) "float formatted" true (has "3.0")

let test_table_csv () =
  let table = Stats.Table.create ~columns:[ "a"; "b" ] in
  Stats.Table.add_row table [ "plain"; "with,comma" ];
  Stats.Table.add_row table [ "quo\"te"; "x" ];
  Alcotest.(check string) "csv escaping"
    "a,b\nplain,\"with,comma\"\n\"quo\"\"te\",x\n"
    (Stats.Table.to_csv table)

let test_table_pivot () =
  let table =
    Stats.Table.pivot ~column:(Printf.sprintf "k=%g")
      [ ("b", 2., 1.); ("a", 1., 2.5); ("b", 1., 3.) ]
  in
  Alcotest.(check string) "rows in first appearance, keys sorted, gaps nan"
    "variant,k=1,k=2\nb,3.00,1.00\na,2.50,nan\n" (Stats.Table.to_csv table)

let test_table_rejects_ragged_rows () =
  let table = Stats.Table.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "ragged" (Invalid_argument "Table.add_row: wrong cell count")
    (fun () -> Stats.Table.add_row table [ "only one" ])

let () =
  Alcotest.run "stats"
    [ ( "summary",
        [ Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "empty rejected" `Quick test_summary_empty_rejected;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile endpoints" `Quick
            test_percentile_endpoints;
          Alcotest.test_case "NaN rejected" `Quick test_summary_nan_rejected;
          Alcotest.test_case "variance sign symmetry" `Quick
            test_summary_variance_two_points;
          Alcotest.test_case "cov" `Quick test_cov ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) summary_props );
      ( "fairness",
        [ Alcotest.test_case "normalized" `Quick test_normalized;
          Alcotest.test_case "mean normalized groups" `Quick
            test_mean_normalized_groups;
          Alcotest.test_case "group cov" `Quick test_fairness_cov;
          Alcotest.test_case "jain" `Quick test_jain ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) fairness_props );
      ( "throughput",
        [ Alcotest.test_case "mbps" `Quick test_throughput_mbps;
          Alcotest.test_case "window" `Quick test_throughput_window;
          Alcotest.test_case "rejects backwards" `Quick
            test_throughput_rejects_backwards ] );
      ( "table",
        [ Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "pivot" `Quick test_table_pivot;
          Alcotest.test_case "ragged rejected" `Quick
            test_table_rejects_ragged_rows ] ) ]
