(* Snapshot rendering for registries.

   Everything here is cold-path: rendering happens once per run, after
   the simulation. All output is deterministic — rows are emitted in
   sorted name order and numbers use fixed formats — so exported
   snapshots can be diffed, golden-tested, and compared across
   `--jobs` settings. *)

let float_str v =
  (* %.6g is enough for every exported quantity (times, rates, windows)
     while keeping snapshots byte-stable across runs. *)
  Printf.sprintf "%.6g" v

(* A histogram explodes into scalar rows; quantiles are the tightest
   upper bounds the buckets can state (see Metrics.Histogram). *)
let histogram_rows name h =
  let q p =
    match Metrics.Histogram.quantile_upper h p with Some v -> v | None -> 0
  in
  [ (name ^ ".count", string_of_int (Metrics.Histogram.count h));
    (name ^ ".mean", float_str (Metrics.Histogram.mean h));
    (name ^ ".p50", string_of_int (q 0.5));
    (name ^ ".p99", string_of_int (q 0.99));
    (name ^ ".max", string_of_int (Metrics.Histogram.max_value h)) ]

let metric_rows name = function
  | Registry.Counter c -> [ (name, string_of_int (Metrics.Counter.get c)) ]
  | Registry.Gauge g ->
    [ (name, string_of_int (Metrics.Gauge.get g));
      (name ^ ".peak", string_of_int (Metrics.Gauge.peak g)) ]
  | Registry.Histogram h -> histogram_rows name h
  | Registry.Value v -> [ (name, float_str !v) ]

let rows registry =
  List.concat_map
    (fun name ->
      match Registry.find registry name with
      | Some metric -> metric_rows name metric
      | None -> [])
    (Registry.names registry)

let json_escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char buffer '\\';
        Buffer.add_char buffer c
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let to_json registry =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "{";
  List.iteri
    (fun i (name, value) ->
      if i > 0 then Buffer.add_string buffer ",";
      Buffer.add_string buffer
        (Printf.sprintf " \"%s\": %s" (json_escape name) value))
    (rows registry);
  Buffer.add_string buffer " }";
  Buffer.contents buffer
