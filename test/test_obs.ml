(* Tests for the observability layer: metric primitives (with qcheck
   properties over the log-scale histogram), the registry, the flight
   recorder, the export snapshot, the allocation-free record path, and
   the golden `report` snapshot. *)

module Metrics = Obs.Metrics
module Registry = Obs.Registry

(* ------------------------------------------------------------------ *)
(* Counter and gauge                                                   *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let c = Metrics.Counter.create () in
  Alcotest.(check int) "zero" 0 (Metrics.Counter.get c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "accumulated" 5 (Metrics.Counter.get c);
  let d = Metrics.Counter.create () in
  Metrics.Counter.add d 10;
  Metrics.Counter.merge_into ~into:c d;
  Alcotest.(check int) "merge adds" 15 (Metrics.Counter.get c);
  Metrics.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Metrics.Counter.get c)

let test_gauge_peak () =
  let g = Metrics.Gauge.create () in
  Metrics.Gauge.set g 5;
  Metrics.Gauge.set g 2;
  Alcotest.(check int) "level" 2 (Metrics.Gauge.get g);
  Alcotest.(check int) "peak survives" 5 (Metrics.Gauge.peak g);
  Metrics.Gauge.add g 7;
  Alcotest.(check int) "add" 9 (Metrics.Gauge.get g);
  Alcotest.(check int) "peak updated" 9 (Metrics.Gauge.peak g);
  let h = Metrics.Gauge.create () in
  Metrics.Gauge.set h 3;
  Metrics.Gauge.merge_into ~into:h g;
  Alcotest.(check int) "merge takes max level" 9 (Metrics.Gauge.get h);
  Alcotest.(check int) "merge takes max peak" 9 (Metrics.Gauge.peak h)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let record_all h values = List.iter (Metrics.Histogram.record h) values

let of_values values =
  let h = Metrics.Histogram.create () in
  record_all h values;
  h

(* Observable state of a histogram, for equality checks. *)
let state h =
  ( Array.to_list (Metrics.Histogram.buckets h),
    Metrics.Histogram.count h,
    Metrics.Histogram.sum h,
    Metrics.Histogram.min_value h,
    Metrics.Histogram.max_value h )

let test_histogram_empty () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check int) "count" 0 (Metrics.Histogram.count h);
  Alcotest.(check int) "min" 0 (Metrics.Histogram.min_value h);
  Alcotest.(check int) "max" 0 (Metrics.Histogram.max_value h);
  Alcotest.(check bool) "quantile" true (Metrics.Histogram.quantile h 0.5 = None)

let test_histogram_edges () =
  Alcotest.(check int) "bucket 0 upper" 0 (Metrics.Histogram.upper_edge 0);
  Alcotest.(check int) "bucket 1" 1 (Metrics.Histogram.lower_edge 1);
  Alcotest.(check int) "bucket 1 upper" 1 (Metrics.Histogram.upper_edge 1);
  Alcotest.(check int) "bucket 4 lower" 8 (Metrics.Histogram.lower_edge 4);
  Alcotest.(check int) "bucket 4 upper" 15 (Metrics.Histogram.upper_edge 4);
  Alcotest.(check int) "index 0" 0 (Metrics.Histogram.index 0);
  Alcotest.(check int) "index -5" 0 (Metrics.Histogram.index (-5));
  Alcotest.(check int) "index 1" 1 (Metrics.Histogram.index 1);
  Alcotest.(check int) "index 8" 4 (Metrics.Histogram.index 8);
  Alcotest.(check int) "last bucket open-ended" max_int
    (Metrics.Histogram.upper_edge (Metrics.Histogram.bucket_count - 1));
  (* max_int fits its bit-width bucket even at the top of the range *)
  let k = Metrics.Histogram.index max_int in
  Alcotest.(check bool) "max_int in its bucket" true
    (Metrics.Histogram.lower_edge k <= max_int)

let small_int = QCheck.int_range (-100) 10_000

let values_gen = QCheck.(list_of_size (Gen.int_range 1 200) small_int)

(* Nearest-rank quantile of a raw sample list. *)
let exact_quantile values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (min (rank - 1) (n - 1))

let histogram_props =
  [ QCheck.Test.make ~name:"value lands in its bucket" ~count:500 small_int
      (fun v ->
        let k = Metrics.Histogram.index v in
        Metrics.Histogram.lower_edge k <= v
        && v <= Metrics.Histogram.upper_edge k);
    QCheck.Test.make ~name:"merge commutative" ~count:200
      QCheck.(pair values_gen values_gen)
      (fun (a, b) ->
        state (Metrics.Histogram.merge (of_values a) (of_values b))
        = state (Metrics.Histogram.merge (of_values b) (of_values a)));
    QCheck.Test.make ~name:"merge associative" ~count:200
      QCheck.(triple values_gen values_gen values_gen)
      (fun (a, b, c) ->
        let h x = of_values x in
        let m = Metrics.Histogram.merge in
        state (m (m (h a) (h b)) (h c)) = state (m (h a) (m (h b) (h c))));
    QCheck.Test.make ~name:"quantile brackets nearest rank" ~count:300
      QCheck.(pair values_gen (float_range 0.01 1.))
      (fun (values, q) ->
        let h = of_values values in
        match Metrics.Histogram.quantile h q with
        | None -> false
        | Some (lower, upper) ->
          let exact = exact_quantile values q in
          lower <= exact && exact <= upper);
    QCheck.Test.make ~name:"quantile_upper bounded by max" ~count:300
      QCheck.(pair values_gen (float_range 0.01 1.))
      (fun (values, q) ->
        let h = of_values values in
        match Metrics.Histogram.quantile_upper h q with
        | None -> false
        | Some v ->
          exact_quantile values q <= v
          && v <= Metrics.Histogram.max_value h);
    QCheck.Test.make ~name:"sharded then merged = single" ~count:200
      QCheck.(pair values_gen (int_range 1 8))
      (fun (values, shards) ->
        (* Deal values round-robin onto [shards] histograms, as many
           links' queues would, then merge them as a collector lifts
           them into one registry metric. *)
        let parts = Array.init shards (fun _ -> Metrics.Histogram.create ()) in
        List.iteri
          (fun i v -> Metrics.Histogram.record parts.(i mod shards) v)
          values;
        let merged = Metrics.Histogram.create () in
        Array.iter (fun h -> Metrics.Histogram.merge_into ~into:merged h) parts;
        state merged = state (of_values values)) ]

(* Negative values clamp into the underflow bucket (regression: they
   used to corrupt [sum] and [min_value] while still landing in bucket
   0, poisoning every aggregate downstream). *)
let test_histogram_negative_clamped () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.record h (-7);
  Metrics.Histogram.record h 3;
  Alcotest.(check int) "count" 2 (Metrics.Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Metrics.Histogram.underflow h);
  Alcotest.(check int) "sum unpolluted" 3 (Metrics.Histogram.sum h);
  Alcotest.(check int) "min clamped to 0" 0 (Metrics.Histogram.min_value h);
  Alcotest.(check int) "max" 3 (Metrics.Histogram.max_value h);
  let g = Metrics.Histogram.create () in
  Metrics.Histogram.record g (-1);
  Metrics.Histogram.merge_into ~into:h g;
  Alcotest.(check int) "merge adds underflow" 2 (Metrics.Histogram.underflow h)

let signed_values_gen =
  QCheck.(list_of_size (Gen.int_range 1 200) (int_range (-1000) 10_000))

let negative_value_props =
  [ QCheck.Test.make ~name:"arbitrary-sign record = clamped record"
      ~count:300 signed_values_gen (fun values ->
        let clamped = of_values (List.map (max 0) values) in
        state (of_values values) = state clamped);
    QCheck.Test.make ~name:"underflow counts the negatives" ~count:300
      signed_values_gen (fun values ->
        Metrics.Histogram.underflow (of_values values)
        = List.length (List.filter (fun v -> v < 0) values));
    QCheck.Test.make ~name:"aggregates never go negative" ~count:300
      signed_values_gen (fun values ->
        let h = of_values values in
        Metrics.Histogram.sum h >= 0
        && Metrics.Histogram.min_value h >= 0
        && Metrics.Histogram.max_value h >= 0) ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_find_or_create () =
  let r = Registry.create () in
  let c = Registry.counter r "a" in
  Metrics.Counter.incr c;
  Alcotest.(check bool) "same handle" true (Registry.counter r "a" == c);
  Alcotest.(check int) "via handle" 1
    (Metrics.Counter.get (Registry.counter r "a"));
  Alcotest.(check int) "length" 1 (Registry.length r);
  Alcotest.(check bool) "mem" true (Registry.mem r "a")

let test_registry_kind_clash () =
  let r = Registry.create () in
  ignore (Registry.counter r "a");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Registry: \"a\" is a counter, not a gauge")
    (fun () -> ignore (Registry.gauge r "a"))

let test_registry_names_sorted () =
  let r = Registry.create () in
  ignore (Registry.counter r "zeta");
  ignore (Registry.gauge r "alpha");
  ignore (Registry.histogram r "mid");
  Alcotest.(check (list string))
    "sorted" [ "alpha"; "mid"; "zeta" ] (Registry.names r)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_recorder_wraps () =
  let r = Obs.Flight_recorder.create ~capacity:3 in
  List.iter (Obs.Flight_recorder.note r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "total" 5 (Obs.Flight_recorder.total r);
  Alcotest.(check int) "length" 3 (Obs.Flight_recorder.length r);
  Alcotest.(check int) "overwritten" 2 (Obs.Flight_recorder.overwritten r);
  Alcotest.(check (list int))
    "last three, oldest first" [ 3; 4; 5 ]
    (Obs.Flight_recorder.to_list r)

let test_recorder_partial () =
  let r = Obs.Flight_recorder.create ~capacity:8 in
  List.iter (Obs.Flight_recorder.note r) [ 1; 2 ];
  Alcotest.(check (list int)) "in order" [ 1; 2 ] (Obs.Flight_recorder.to_list r);
  Alcotest.(check int) "nothing lost" 0 (Obs.Flight_recorder.overwritten r)

let test_recorder_attach () =
  let tap = Sim.Trace.tap () in
  let r = Obs.Flight_recorder.attach ~capacity:2 tap in
  Alcotest.(check bool) "arms the tap" true (Sim.Trace.armed tap);
  List.iter (Sim.Trace.emit tap) [ "a"; "b"; "c" ];
  Alcotest.(check (list string))
    "retains tail" [ "b"; "c" ] (Obs.Flight_recorder.to_list r)

let test_recorder_rejects_zero_capacity () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Flight_recorder.create: capacity < 1") (fun () ->
      ignore (Obs.Flight_recorder.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let sample_registry () =
  let r = Registry.create () in
  Metrics.Counter.add (Registry.counter r "pkts") 42;
  Metrics.Gauge.set (Registry.gauge r "depth") 3;
  Registry.set_value r "util" 0.5;
  record_all (Registry.histogram r "occ") [ 1; 2; 2; 9 ];
  r

let test_export_rows () =
  let rows = Obs.Export.rows (sample_registry ()) in
  let get name =
    match List.assoc_opt name rows with
    | Some v -> v
    | None -> Alcotest.failf "missing row %s" name
  in
  Alcotest.(check string) "counter" "42" (get "pkts");
  Alcotest.(check string) "gauge" "3" (get "depth");
  Alcotest.(check string) "gauge peak" "3" (get "depth.peak");
  Alcotest.(check string) "value" "0.5" (get "util");
  Alcotest.(check string) "hist count" "4" (get "occ.count");
  Alcotest.(check string) "hist max" "9" (get "occ.max");
  Alcotest.(check string) "hist p50 (bucket upper edge)" "3" (get "occ.p50");
  (* Metrics come out in sorted name order; a histogram's sub-rows keep
     their semantic order (count, mean, quantiles, max). *)
  Alcotest.(check (list string)) "deterministic row order"
    [ "depth"; "depth.peak"; "occ.count"; "occ.mean"; "occ.p50"; "occ.p99";
      "occ.max"; "pkts"; "util" ]
    (List.map fst rows)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_export_csv_and_json () =
  let json = Obs.Export.to_json (sample_registry ()) in
  Alcotest.(check bool) "json has counter" true (contains json "\"pkts\": 42");
  Alcotest.(check bool) "json has value" true (contains json "\"util\": 0.5")

(* ------------------------------------------------------------------ *)
(* Allocation-free record path                                         *)
(* ------------------------------------------------------------------ *)

let test_record_path_allocation_free () =
  let h = Metrics.Histogram.create () in
  let c = Metrics.Counter.create () in
  let g = Metrics.Gauge.create () in
  (* Warm up (first calls may allocate lazily elsewhere). *)
  Metrics.Histogram.record h 5;
  Metrics.Counter.incr c;
  Metrics.Gauge.set g 1;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Metrics.Histogram.record h i;
    Metrics.Counter.incr c;
    Metrics.Gauge.set g i
  done;
  let allocated = Gc.minor_words () -. before in
  (* Gc.minor_words itself boxes its float result; allow a few words of
     slack but nothing proportional to the 30k records. *)
  if allocated > 16. then
    Alcotest.failf "record path allocated %.0f minor words" allocated

(* ------------------------------------------------------------------ *)
(* Streaming RFC 4737 reordering metrics                               *)
(* ------------------------------------------------------------------ *)

module Reorder = Obs.Reorder

(* Naive offline reference: recompute every metric from the recorded
   arrival list with full lookback over the last [window] arrivals,
   mirroring the documented semantics the stream implements with a
   ring. With [window >= length] the windowed definition coincides
   with the unwindowed RFC 4737 one (nothing can age out), so the
   differential also pins the stream against the exact metric. *)
type offline = {
  o_arrivals : int;
  o_reordered : int;
  o_late_retx : int;
  o_capped : int;
  o_next_exp : int;
  o_extent : Metrics.Histogram.t;
  o_late : Metrics.Histogram.t;
  o_n : Metrics.Histogram.t;
}

let offline_reorder ~window arrivals =
  let arr = Array.of_list arrivals in
  let seqs = Array.map fst arr in
  let o =
    { o_arrivals = Array.length arr;
      o_reordered = 0;
      o_late_retx = 0;
      o_capped = 0;
      o_next_exp = 0;
      o_extent = Metrics.Histogram.create ();
      o_late = Metrics.Histogram.create ();
      o_n = Metrics.Histogram.create () }
  in
  let reordered = ref 0 and late_retx = ref 0 in
  let capped = ref 0 and next_exp = ref 0 in
  Array.iteri
    (fun i (seq, retx) ->
      if seq >= !next_exp then next_exp := seq + 1
      else begin
        Metrics.Histogram.record o.o_late (!next_exp - seq);
        if retx then incr late_retx
        else begin
          incr reordered;
          let farthest = ref 0 and run = ref 0 in
          let consecutive = ref true in
          for k = 1 to min i window do
            if seqs.(i - k) > seq then begin
              farthest := k;
              if !consecutive then run := k
            end
            else consecutive := false
          done;
          if i >= window && (!farthest = 0 || !farthest = window) then
            incr capped;
          Metrics.Histogram.record o.o_extent
            (if !farthest = 0 then window else !farthest);
          if !run > 0 then Metrics.Histogram.record o.o_n !run
        end
      end)
    arr;
  { o with
    o_reordered = !reordered;
    o_late_retx = !late_retx;
    o_capped = !capped;
    o_next_exp = !next_exp }

let stream_matches ~window arrivals =
  let ro = Reorder.create ~window () in
  List.iter (fun (seq, retx) -> Reorder.observe ro ~retx ~seq ()) arrivals;
  let o = offline_reorder ~window arrivals in
  Reorder.arrivals ro = o.o_arrivals
  && Reorder.reordered ro = o.o_reordered
  && Reorder.late_retx ro = o.o_late_retx
  && Reorder.extent_capped ro = o.o_capped
  && Reorder.next_exp ro = o.o_next_exp
  && state (Reorder.extent ro) = state o.o_extent
  && state (Reorder.late_offset ro) = state o.o_late
  && state (Reorder.n_reordering ro) = state o.o_n

(* Arrival streams as a displacement model: packet [i] leaves in order
   and arrives keyed by [i + d_i] (stable on ties), the way a
   delay-spread path set reorders a flow — every sequence number
   arrives exactly once. [retx] flags are independent. *)
let displaced_stream_gen =
  let open QCheck.Gen in
  let gen =
    int_range 1 120 >>= fun n ->
    list_repeat n (int_range 0 12) >>= fun ds ->
    list_repeat n (frequency [ (4, return false); (1, return true) ])
    >>= fun retx ->
    let keyed = List.mapi (fun i d -> (i + d, i)) ds in
    let order = List.sort compare keyed in
    return (List.map2 (fun (_, i) r -> (i, r)) order retx)
  in
  let print l =
    String.concat ";"
      (List.map
         (fun (s, r) -> Printf.sprintf "%d%s" s (if r then "r" else ""))
         l)
  in
  QCheck.make ~print gen

(* Arbitrary non-negative sequence lists (repeats, jumps): exercises
   the degenerate corners the displacement model cannot reach. *)
let raw_stream_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 100) (pair (int_range 0 40) bool))

let reorder_props =
  [ QCheck.Test.make ~name:"stream = offline (exact, window > length)"
      ~count:300 displaced_stream_gen (stream_matches ~window:200);
    QCheck.Test.make ~name:"stream = offline (window 8, capping)"
      ~count:300 displaced_stream_gen (stream_matches ~window:8);
    QCheck.Test.make ~name:"stream = offline (arbitrary seqs, window 4)"
      ~count:300 raw_stream_gen (stream_matches ~window:4) ]

let test_reorder_in_order_stream () =
  let ro = Reorder.create () in
  for seq = 0 to 99 do
    Reorder.observe ro ~seq ()
  done;
  Alcotest.(check int) "no reordering" 0 (Reorder.reordered ro);
  Alcotest.(check (float 1e-9)) "density 0" 0. (Reorder.density ro);
  Alcotest.(check int) "next_exp" 100 (Reorder.next_exp ro)

let test_reorder_extent_caps_at_window () =
  let window = 4 in
  let ro = Reorder.create ~window () in
  (* 0..9 in order, then seq 2: everything larger aged out of the
     4-deep ring except the edge, so the extent must report the window
     bound and count the cap. *)
  for seq = 0 to 9 do
    Reorder.observe ro ~seq ()
  done;
  Reorder.observe ro ~seq:2 ();
  Alcotest.(check int) "capped" 1 (Reorder.extent_capped ro);
  Alcotest.(check int) "extent = window" window
    (Metrics.Histogram.max_value (Reorder.extent ro))

let test_reorder_duplicates_counted_once () =
  let ro = Reorder.create () in
  Reorder.observe ro ~seq:0 ();
  Reorder.observe ro ~seq:1 ();
  Reorder.observe_duplicate ro;
  Alcotest.(check int) "arrivals unchanged" 2 (Reorder.arrivals ro);
  Alcotest.(check int) "duplicates" 1 (Reorder.duplicates ro);
  Alcotest.(check int) "no reordering from the dup" 0 (Reorder.reordered ro)

(* ------------------------------------------------------------------ *)
(* Sketch-based reorder detector                                       *)
(* ------------------------------------------------------------------ *)

module Sketch = Obs.Reorder_sketch

let test_sketch_in_order_clean () =
  let s = Sketch.create () in
  for seq = 0 to 99 do
    Sketch.observe s ~flow:3 ~seq
  done;
  Alcotest.(check int) "observed" 100 (Sketch.observed s);
  Alcotest.(check int) "no detections" 0 (Sketch.detected s);
  Alcotest.(check int) "estimate 0" 0 (Sketch.estimate s ~flow:3)

let test_sketch_detects_late_arrival () =
  let s = Sketch.create () in
  for seq = 0 to 9 do
    Sketch.observe s ~flow:3 ~seq
  done;
  Sketch.observe s ~flow:3 ~seq:4;
  Alcotest.(check int) "one detection" 1 (Sketch.detected s);
  Alcotest.(check bool) "estimate >= 1" true (Sketch.estimate s ~flow:3 >= 1)

let test_sketch_fixed_memory () =
  let s = Sketch.create () in
  let words = Sketch.memory_words s in
  Alcotest.(check int) "2 * depth * width" (2 * Sketch.depth s * Sketch.width s)
    words;
  for flow = 0 to 999 do
    Sketch.observe s ~flow ~seq:flow
  done;
  Alcotest.(check int) "unchanged after 1000 flows" words
    (Sketch.memory_words s)

(* Telemetry renders reordering rows only when non-trivial, so
   reordering-free scenarios keep byte-identical reports. *)
let test_telemetry_sketch_rows_gated () =
  let r = Registry.create () in
  let s = Sketch.create () in
  for seq = 0 to 9 do
    Sketch.observe s ~flow:0 ~seq
  done;
  Check.Telemetry.reorder_sketch r s;
  Alcotest.(check int) "clean sketch renders nothing" 0 (Registry.length r);
  Sketch.observe s ~flow:0 ~seq:2;
  Check.Telemetry.reorder_sketch r s;
  Alcotest.(check bool) "detection renders rows" true
    (Registry.mem r "reorder_sketch.detected")

(* ------------------------------------------------------------------ *)
(* Golden report                                                       *)
(* ------------------------------------------------------------------ *)

let report_variants =
  [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]

let render_report ~scenario ~jobs =
  Check.Report.render ~seed:1 ~jobs ~scenario ~variants:report_variants ()

let golden_report_path = Filename.concat "golden" "report.txt"

let test_report_matches_golden () =
  if not (Sys.file_exists golden_report_path) then
    Alcotest.failf "%s missing (run `make golden`)" golden_report_path;
  let stored =
    In_channel.with_open_bin golden_report_path In_channel.input_all
  in
  let actual = render_report ~scenario:Check.Report.Dumbbell ~jobs:1 in
  if not (String.equal stored actual) then
    Alcotest.failf
      "report drifted from %s at %s\n\
       (if the change is intended, regenerate with `make golden`)"
      golden_report_path
      (Check.Golden.first_diff ~expected:stored ~actual)

let test_report_jobs_independent () =
  List.iter
    (fun scenario ->
      Alcotest.(check string)
        (Check.Report.scenario_name scenario
        ^ ": jobs=2 byte-identical to jobs=1")
        (render_report ~scenario ~jobs:1)
        (render_report ~scenario ~jobs:2))
    Check.Report.scenarios

let test_report_csv_shape () =
  let csv =
    Check.Report.render ~csv:true ~seed:1 ~jobs:1
      ~scenario:Check.Report.Jitter_chain
      ~variants:[ Experiments.Variants.tcp_pr ]
      ()
  in
  match String.split_on_char '\n' csv with
  | header :: first :: _ ->
    Alcotest.(check string) "header" "scenario,variant,metric,value" header;
    Alcotest.(check bool) "rows carry scenario and variant" true
      (String.length first > 20
      && String.sub first 0 20 = "jitter-chain,TCP-PR,")
  | _ -> Alcotest.fail "empty csv"

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter" `Quick test_counter_basics;
          Alcotest.test_case "gauge peak" `Quick test_gauge_peak;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
          Alcotest.test_case "record path allocation-free" `Quick
            test_record_path_allocation_free;
          Alcotest.test_case "negative values clamp" `Quick
            test_histogram_negative_clamped ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) histogram_props
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false)
            negative_value_props );
      ( "reorder",
        [ Alcotest.test_case "in-order stream" `Quick
            test_reorder_in_order_stream;
          Alcotest.test_case "extent caps at window" `Quick
            test_reorder_extent_caps_at_window;
          Alcotest.test_case "duplicates counted once" `Quick
            test_reorder_duplicates_counted_once ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) reorder_props );
      ( "reorder-sketch",
        [ Alcotest.test_case "in-order clean" `Quick test_sketch_in_order_clean;
          Alcotest.test_case "detects late arrival" `Quick
            test_sketch_detects_late_arrival;
          Alcotest.test_case "fixed memory" `Quick test_sketch_fixed_memory;
          Alcotest.test_case "telemetry rows gated" `Quick
            test_telemetry_sketch_rows_gated ] );
      ( "registry",
        [ Alcotest.test_case "find or create" `Quick
            test_registry_find_or_create;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "names sorted" `Quick test_registry_names_sorted
        ] );
      ( "flight-recorder",
        [ Alcotest.test_case "wraps" `Quick test_recorder_wraps;
          Alcotest.test_case "partial fill" `Quick test_recorder_partial;
          Alcotest.test_case "attach" `Quick test_recorder_attach;
          Alcotest.test_case "zero capacity rejected" `Quick
            test_recorder_rejects_zero_capacity ] );
      ( "export",
        [ Alcotest.test_case "rows" `Quick test_export_rows;
          Alcotest.test_case "csv and json" `Quick test_export_csv_and_json ] );
      ( "report",
        [ Alcotest.test_case "matches golden" `Quick test_report_matches_golden;
          Alcotest.test_case "jobs independent" `Quick
            test_report_jobs_independent;
          Alcotest.test_case "csv shape" `Quick test_report_csv_shape ] ) ]
