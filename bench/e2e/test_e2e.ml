(* Unit tests for the benchmark's own helpers: the median/quartile
   summary and the sum of per-piece minima, the CPU clock, the log
   histogram's percentiles, and the JSON / Chrome trace writers. *)

open E2e

let check_float = Alcotest.(check (float 1e-12))

let triple = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12))

(* Expected values are Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Quantiles.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "two samples (clamped)" (0.75, 1.5, 2.25)
    (Quantiles.quartiles [ 1.; 2. ]);
  Alcotest.check triple "unsorted" (1., 2., 3.) (Quantiles.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check triple "seven" (2., 4., 6.)
    (Quantiles.quartiles [ 5.; 1.; 4.; 2.; 3.; 7.; 6. ]);
  Alcotest.check triple "one sample" (7., 7., 7.) (Quantiles.quartiles [ 7. ])

let test_median_spread () =
  check_float "odd" 3. (Quantiles.median [ 5.; 1.; 3. ]);
  check_float "even" 2.5 (Quantiles.median [ 4.; 1.; 3.; 2. ]);
  check_float "spread" ((8.25 -. 2.75) /. 5.5)
    (Quantiles.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "zero median" 0. (Quantiles.spread [ 0.; 0. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Quantiles.median: empty")
    (fun () -> ignore (Quantiles.median []))

let test_sum_of_minima () =
  let opt = Alcotest.(option int) in
  Alcotest.check opt "per position" (Some (1 + 2 + 3))
    (Quantiles.sum_of_minima [ [| 5; 2; 3 |]; [| 1; 9; 4 |]; [| 2; 2; 8 |] ]);
  Alcotest.check opt "one row" (Some 6) (Quantiles.sum_of_minima [ [| 1; 5 |] ]);
  Alcotest.check opt "no rows" None (Quantiles.sum_of_minima []);
  Alcotest.check opt "lengths differ" None
    (Quantiles.sum_of_minima [ [| 1; 2 |]; [| 1 |] ])

(* The thread's CPU clock advances while it computes and never runs
   ahead of the wall clock. *)
let test_cpu_clock () =
  let c0 = Cpu_clock.now () and w0 = Spans.now () in
  let x = ref 0 in
  for i = 1 to 10_000_000 do
    x := !x lxor i
  done;
  ignore (Sys.opaque_identity !x);
  let c = Cpu_clock.now () - c0 and w = Spans.now () - w0 in
  if c <= 0 then Alcotest.failf "CPU clock did not advance (%d ns)" c;
  (* Both clocks tick in ns; allow for their different read times. *)
  if c > w + 1_000_000 then Alcotest.failf "CPU time %d ns exceeds wall time %d ns" c w

let test_loghist_buckets () =
  for v = 0 to 100_000 do
    let i = Loghist.index v in
    let lo = Loghist.lower_edge i in
    if not (lo <= v && v < lo + Loghist.width i) then
      Alcotest.failf "value %d outside its bucket %d [%d, +%d)" v i lo
        (Loghist.width i)
  done;
  Alcotest.(check bool) "max_int has a bucket" true
    (Loghist.index max_int < Loghist.buckets);
  Alcotest.(check int) "negative clamps to 0" 0 (Loghist.index (-5))

let test_loghist_percentile () =
  let h = Loghist.create () in
  check_float "empty" 0. (Loghist.percentile h 50.);
  for v = 1 to 100 do
    Loghist.record h v
  done;
  Alcotest.(check int) "count" 100 (Loghist.count h);
  (* Nearest rank 50 is 50, in bucket [48, 52); rank 99 is 99, in
     [96, 104): each percentile is its bucket's midpoint. *)
  check_float "p50" 49.5 (Loghist.percentile h 50.);
  check_float "p99" 99.5 (Loghist.percentile h 99.);
  check_float "p0 is the smallest" 1. (Loghist.percentile h 0.);
  let g = Loghist.create () in
  for _ = 1 to 300 do
    Loghist.record g 1_000_000
  done;
  Loghist.merge_into ~into:g h;
  Alcotest.(check int) "merged count" 400 (Loghist.count g);
  check_float "merged p25" 99.5 (Loghist.percentile g 25.);
  let p99 = Loghist.percentile g 99. in
  if Float.abs (p99 -. 1e6) > 1e6 /. 8. then
    Alcotest.failf "merged p99 %g not within 12.5%% of 1e6" p99

let test_json_writer () =
  let v =
    Jsonw.(
      Obj
        [ ("a", Int 1);
          ("b", List [ Float 0.5; Null; Bool true; Float nan ]);
          ("s", String "q\"\\\n\001") ])
  in
  Alcotest.(check string) "rendering"
    {|{"a":1,"b":[0.5,null,true,null],"s":"q\"\\\n\u0001"}|} (Jsonw.to_string v);
  List.iter
    (fun f ->
      let s = Jsonw.float_repr f in
      if float_of_string s <> f then Alcotest.failf "%s does not read back" s)
    [ 0.1; 1. /. 3.; 1e300; 5e-324; 123456789.125; -0.75 ];
  Alcotest.(check string) "short form" "0.1" (Jsonw.float_repr 0.1)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_chrome_trace () =
  let call = Spans.register ~sampled:true "test.call" in
  let (), _ =
    Spans.span "test.outer" (fun () ->
        for _ = 1 to 1000 do
          Spans.enter call;
          ignore (Spans.leave ())
        done)
  in
  let agg =
    List.find (fun a -> a.Spans.agg_name = "test.call") (Spans.aggregates ())
  in
  Alcotest.(check string) "parent" "test.outer" agg.Spans.parent;
  Alcotest.(check int) "every call counted" 1000 agg.Spans.calls;
  if agg.Spans.timed_calls < 30 || agg.Spans.timed_calls > 300 then
    Alcotest.failf "%d of 1000 calls timed, expected about 118" agg.Spans.timed_calls;
  let json = Jsonw.to_string (Spans.chrome_trace ~process:"test") in
  List.iter
    (fun sub ->
      if not (contains json sub) then Alcotest.failf "trace lacks %s" sub)
    [ {|"traceEvents":[{"name":"test.outer","cat":"bench","ph":"X","ts":0,|};
      {|"name":"test.call","parent":"test.outer","calls":1000,|};
      {|"displayTimeUnit":"ns"|} ]

let () =
  Alcotest.run "e2e"
    [ ( "quantiles",
        [ Alcotest.test_case "python quartiles" `Quick test_quartiles;
          Alcotest.test_case "median and spread" `Quick test_median_spread;
          Alcotest.test_case "sum of minima" `Quick test_sum_of_minima ] );
      ("cpu clock", [ Alcotest.test_case "advances" `Quick test_cpu_clock ]);
      ( "loghist",
        [ Alcotest.test_case "buckets" `Quick test_loghist_buckets;
          Alcotest.test_case "percentile" `Quick test_loghist_percentile ] );
      ( "json",
        [ Alcotest.test_case "writer" `Quick test_json_writer;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace ] ) ]
