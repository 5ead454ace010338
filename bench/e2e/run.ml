(* End-to-end benchmark runner.

     dune exec bench/e2e/run.exe -- [--reps N | --seconds T] [--seed S]
       [--workloads a,b] [--trace 0|1] [--out DIR] [--smoke]

   Cross-checks each selected workload against the library's own runner
   at toy size, then runs repetitions, each in a fresh child process of
   this executable ([--one W]), one at a time, round-robin across the
   workloads with the order reversed on alternate rounds. With
   [--trace 1] each round (or, with [--reps], one extra round) also runs
   a traced repetition per workload, which gives the per-layer metrics.
   [--seconds T] counts the cross-check in its budget.
   Prints every metric as [workload metric value unit], writes
   [results.json] and the Chrome traces to [--out], and ends with a
   one-line JSON summary. Exits 1 when any check fails. See README.md. *)

let end_to_end =
  [ ("hops_per_s", "hops/s");
    ("setup_s", "s");
    ("alloc_b_per_hop", "B/hop");
    ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("sim.events_per_hop", "events/hop");
    ("sim.timer_ops_per_hop", "ops/hop");
    ("sim.timer_fire_ratio", "fires/arm");
    ("sim.events_per_s", "events/s");
    ("tcp.sender.on_ack.calls_per_hop", "calls/hop");
    ("tcp.sender.on_ack.ns", "ns");
    ("tcp.sender.on_ack.ns.p50", "ns");
    ("tcp.sender.on_ack.ns.p99", "ns") ]
  @ List.map (fun v -> ("tcp.sender.on_ack.ns." ^ v, "ns")) E2e.Child.fig6_variants
  @ [ ("tcp.sender.on_timer.calls", "count");
      ("tcp.sender.on_timer.ns", "ns");
      ("tcp.sender.create.calls", "count");
      ("tcp.sender.create.ns", "ns");
      ("tcp.sender.share", "share");
      ("tcp.sender.ns_per_hop", "ns/hop");
      ("multipath.route.calls_per_hop", "calls/hop");
      ("multipath.route.ns", "ns");
      ("multipath.route.ns_per_hop", "ns/hop");
      ("tcp.receiver.ns_per_arrival", "ns");
      ("tcp.receiver.ooo_share", "share");
      ("net.hops", "count");
      ("net.drop_ratio", "share");
      ("net.queue_wait_us.p50", "us");
      ("net.queue_wait_us.p99", "us");
      ("net.pool.created", "count");
      ("workload.setup_ns_per_flow", "ns");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_b_per_hop", "B/hop");
      ("gc.pause_ms", "ms");
      ("gc.pause_ms.p99", "ms");
      ("gc.share", "share");
      ("gc.lost_events", "count");
      ("residual.ns_per_hop", "ns/hop");
      ("trace.run_ns_per_hop", "ns/hop");
      ("trace.overhead", "share");
      ("host.calib_ns", "ns") ]

(* A set is unresolved when the reference loop's spread says the host
   itself changed speed between repetitions. *)
let drift_limit = 0.05

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- child processes ----------------------------------------------------- *)

type rep = {
  workload : string;
  traced : bool;
  values : (string * string) list;
  error : string option;
}

let parse_lines lines =
  List.filter_map
    (fun line ->
      match String.index_opt line '=' with
      | Some i ->
        Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    lines

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* Runs one repetition in a child process and waits for it. Traced
   children put the runtime's event ring under [out]. *)
let spawn ~out ~seed ~smoke ~traced workload =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--one"; workload; "--seed"; string_of_int seed; "--out"; out ]
    @ (if traced then [ "--traced" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let env =
    let keep v = not (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS_DIR=" v) in
    Array.append
      (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ out |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list args) env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = read_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let values = parse_lines lines in
  let error =
    match status with
    | Unix.WEXITED 0 ->
      if List.mem_assoc "fingerprint" values then None
      else Some "no measurements"
    | Unix.WEXITED n -> Some (Printf.sprintf "exit %d" n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Some (Printf.sprintf "signal %d" n)
  in
  { workload; traced; values; error }

(* --- cross-check against the library ------------------------------------ *)

let same_floats a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Every cell of the workload at toy size must reproduce its library
   runner's outputs bit for bit. *)
let equivalent (w : E2e.Scenarios.workload) ~seed =
  List.for_all
    (fun (cell : E2e.Scenarios.cell) ->
      let p = cell.prepare E2e.Scenarios.plain in
      p.run ~lap:ignore;
      let ok = same_floats (p.outputs ()) (cell.reference ()) in
      if not ok then log "[e2e] %s %s: differs from the library runner" w.name cell.label;
      ok)
    (w.cells ~seed E2e.Scenarios.Smoke)

(* --- aggregation ---------------------------------------------------------- *)

(* [value] is the reported number: the median of the repetitions, or
   for the two host timings of the end-to-end set, the sum of
   [fastest] pieces. The quartiles are always those of the repetitions. *)
type summary = {
  value : float;
  fastest : bool;
  median : float;
  q1 : float;
  q3 : float;
  n : int;
}

let summarize xs =
  let q1, median, q3 = E2e.Quantiles.quartiles xs in
  { value = median; fastest = false; median; q1; q3; n = List.length xs }

let floats name reps =
  List.filter_map
    (fun r ->
      match List.assoc_opt name r.values with
      | Some v -> float_of_string_opt v
      | None -> None)
    reps

(* Each repetition reports a list of host times under [name], one per
   piece of work (a cell's set-up, a slice of simulated time) that is
   the same in every repetition of the seed. Sums the fastest time of
   each piece over the repetitions: a host that slows down in bursts
   leaves every piece a calm repetition, so the sum moves with the
   program rather than with the bursts. [None] when the repetitions
   disagree on the pieces. *)
let fastest_sum name reps =
  E2e.Quantiles.sum_of_minima
    (List.filter_map
       (fun r ->
         Option.map
           (fun v -> Array.of_list (List.map int_of_string (String.split_on_char ',' v)))
           (List.assoc_opt name r.values))
       reps)

type result = {
  name : string;
  seed : int;
  attempted : int;
  failed : int;
  equivalent : bool;
  fingerprint : string;
  metrics : (string * summary) list;
  pauses_resolved : bool;
}

let aggregate (w : E2e.Scenarios.workload) ~seed ~equivalent reps =
  let mine = List.filter (fun r -> r.workload = w.name) reps in
  let fingerprint =
    match List.find_opt (fun r -> r.error = None) mine with
    | Some r -> List.assoc "fingerprint" r.values
    | None -> ""
  in
  let rep_ok r =
    r.error = None
    && List.assoc_opt "fingerprint" r.values = Some fingerprint
    && List.assoc_opt "check" r.values = Some "ok"
  in
  List.iter
    (fun r ->
      if not (rep_ok r) then
        log "[e2e] %s%s repetition failed: %s" w.name
          (if r.traced then " (traced)" else "")
          (match (r.error, List.assoc_opt "check" r.values) with
          | Some e, _ -> e
          | None, Some c when c <> "ok" -> c
          | None, _ -> "fingerprint differs from the first repetition"))
    mine;
  let good = List.filter rep_ok mine in
  let plain = List.filter (fun r -> not r.traced) good in
  let traced = List.filter (fun r -> r.traced) good in
  (* Counters come from untraced repetitions where they exist; the
     layer timings exist only in traced ones. *)
  let values name =
    match floats name plain with [] -> floats name traced | xs -> xs
  in
  (* The two host timings of the end-to-end set come from the fastest
     pieces of the untraced repetitions. *)
  let fastest name s =
    let from_pieces pieces f =
      match fastest_sum pieces plain with
      | Some ns when ns > 0 -> { s with value = f (float_of_int ns /. 1e9); fastest = true }
      | _ -> s
    in
    match (name, floats "net.hops" plain) with
    | "hops_per_s", hops :: _ -> from_pieces "run.slices_ns" (fun run_s -> hops /. run_s)
    | "setup_s", _ -> from_pieces "setup.cells_ns" Fun.id
    | _ -> s
  in
  let metrics =
    List.filter_map
      (fun (name, _) ->
        match values name with [] -> None | xs -> Some (name, fastest name (summarize xs)))
      (end_to_end @ per_layer)
  in
  let attempted = List.length mine + 1 in
  let failed =
    List.length mine - List.length good + if equivalent then 0 else 1
  in
  { name = w.name;
    seed;
    attempted;
    failed;
    equivalent;
    fingerprint;
    metrics;
    pauses_resolved =
      List.for_all (fun x -> x = 0.) (floats "gc.lost_events" traced) }

(* --- reporting ------------------------------------------------------------- *)

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with Some u -> u | None -> ""

let is_pause name = String.starts_with ~prefix:"gc.pause_ms" name

let print_rows r =
  let row metric value unit = Printf.printf "%s %s %s %s\n" r.name metric value unit in
  List.iter
    (fun (name, s) ->
      let value =
        if is_pause name && not r.pauses_resolved then "unresolved"
        else E2e.Jsonw.float_repr s.value
      in
      let f = E2e.Jsonw.float_repr in
      if s.fastest then
        row name value
          (Printf.sprintf "%s (fastest pieces of %d; per repetition q1 %s, median %s, q3 %s)"
             (unit_of name) s.n (f s.q1) (f s.median) (f s.q3))
      else if s.n > 1 then
        row name value
          (Printf.sprintf "%s (median of %d; q1 %s, q3 %s)" (unit_of name) s.n (f s.q1)
             (f s.q3))
      else row name value (unit_of name))
    r.metrics;
  row "failed_runs"
    (E2e.Jsonw.float_repr (float_of_int r.failed /. float_of_int r.attempted))
    (Printf.sprintf "share (%d of %d)" r.failed r.attempted)

let result_json r =
  E2e.Jsonw.(
    Obj
      [ ("seed", Int r.seed);
        ("attempted", Int r.attempted);
        ("failed", Int r.failed);
        ("matches_library", Bool r.equivalent);
        ("fingerprint", String r.fingerprint);
        ("gc_pauses_resolved", Bool r.pauses_resolved);
        ( "metrics",
          Obj
            (List.map
               (fun (name, s) ->
                 ( name,
                   Obj
                     [ ("unit", String (unit_of name));
                       ("value", Float s.value);
                       ("of", String (if s.fastest then "fastest pieces" else "median"));
                       ("median", Float s.median);
                       ("q1", Float s.q1);
                       ("q3", Float s.q3);
                       ("n", Int s.n) ] ))
               r.metrics) ) ])

(* The last line of output: the selected metric set of each workload,
   keyed by bare name for a single workload and [workload.metric]
   otherwise. *)
let summary_line results ~names =
  let key r name =
    match results with [ _ ] -> name | _ -> r.name ^ "." ^ name
  in
  let metrics =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun name ->
            match List.assoc_opt name r.metrics with
            | Some s when not (is_pause name && not r.pauses_resolved) ->
              Some
                ( key r name,
                  E2e.Jsonw.(Obj [ ("value", Float s.value); ("unit", String (unit_of name)) ]) )
            | _ -> None)
          names)
      results
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  E2e.Jsonw.(
    to_string
      (Obj
         [ ("correct", Bool (sum (fun r -> r.failed) = 0));
           ("attempted", Int (sum (fun r -> r.attempted)));
           ("failed", Int (sum (fun r -> r.failed)));
           ("metrics", Obj metrics) ]))

(* --- main ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let usage = "run.exe [--reps N | --seconds T] [--seed S] [--workloads a,b] [--trace 0|1] [--out DIR] [--smoke]"

let () =
  let start = Unix.gettimeofday () in
  let workloads = ref "" in
  let reps = ref 7 in
  let seconds = ref 0. in
  let seed = ref None in
  let trace = ref 1 in
  let out = ref "_build/bench-e2e" in
  let smoke = ref false in
  let one = ref "" in
  let traced = ref false in
  let spec =
    [ ("--workloads", Arg.Set_string workloads, "A,B workloads to run (default: all four)");
      ("--workload", Arg.Set_string workloads, "W same as --workloads W");
      ("--reps", Arg.Set_int reps, "N repetitions per workload (default 7)");
      ( "--seconds",
        Arg.Set_float seconds,
        "T run whole rounds for about T seconds instead of --reps" );
      ("--seed", Arg.Int (fun s -> seed := Some s), "S seed for every workload");
      ("--trace", Arg.Set_int trace, "0|1 run traced repetitions too (default 1)");
      ("--out", Arg.Set_string out, "DIR results and traces (default _build/bench-e2e)");
      ("--smoke", Arg.Set smoke, " toy sizes, one repetition");
      ("--one", Arg.Set_string one, "W run one repetition in this process (internal)");
      ("--traced", Arg.Set traced, " with --one: the traced repetition (internal)") ]
  in
  let fail msg =
    prerr_endline ("run.exe: " ^ msg);
    exit 2
  in
  Arg.parse spec (fun a -> fail ("unexpected argument " ^ a)) usage;
  let find name =
    match E2e.Scenarios.find name with
    | Some w -> w
    | None -> fail ("unknown workload " ^ name)
  in
  let size = if !smoke then E2e.Scenarios.Smoke else E2e.Scenarios.Full in
  let seed_of (w : E2e.Scenarios.workload) = Option.value !seed ~default:w.default_seed in
  if !one <> "" then begin
    let w = find !one in
    E2e.Child.run w ~seed:(seed_of w) ~size ~traced:!traced ~out:!out;
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !reps < 1 then fail "--reps must be at least 1";
  if !seconds < 0. then fail "--seconds must be positive";
  let selected =
    if !workloads = "" then E2e.Scenarios.workloads
    else List.map find (String.split_on_char ',' !workloads)
  in
  let reps = if !smoke then 1 else !reps in
  mkdir_p !out;
  let matches =
    List.map (fun (w : E2e.Scenarios.workload) -> (w.name, equivalent w ~seed:(seed_of w))) selected
  in
  let run_job (w : E2e.Scenarios.workload) ~traced =
    if not !smoke then log "[e2e] %s%s" w.name (if traced then " (traced)" else "");
    spawn ~out:!out ~seed:(seed_of w) ~smoke:!smoke ~traced w.name
  in
  let round k ~plain ~traced =
    let order = if k mod 2 = 0 then selected else List.rev selected in
    List.concat_map
      (fun w ->
        let first = if plain then [ run_job w ~traced:false ] else [] in
        first @ if traced then [ run_job w ~traced:true ] else [])
      order
  in
  let tracing = !trace = 1 in
  let all_reps =
    if !seconds > 0. then begin
      (* Whole rounds, untraced and traced together, while the slowest
         round so far still fits in the budget, which includes the
         cross-check. *)
      let rec go k longest acc =
        let t0 = Unix.gettimeofday () in
        let acc = acc @ round k ~plain:true ~traced:tracing in
        let t1 = Unix.gettimeofday () in
        let longest = Float.max longest (t1 -. t0) in
        if t1 -. start +. longest <= !seconds then go (k + 1) longest acc else acc
      in
      go 0 0. []
    end
    else begin
      let rec rounds k =
        if k = reps then if tracing then round k ~plain:false ~traced:true else []
        else begin
          let plain = round k ~plain:true ~traced:false in
          plain @ rounds (k + 1)
        end
      in
      rounds 0
    end
  in
  let results =
    List.map
      (fun (w : E2e.Scenarios.workload) ->
        aggregate w ~seed:(seed_of w) ~equivalent:(List.assoc w.name matches) all_reps)
      selected
  in
  let calib = floats "host.calib_ns" all_reps in
  let drift = calib <> [] && E2e.Quantiles.spread calib > drift_limit in
  List.iter print_rows results;
  Printf.printf "host.calib_ns spread %s: %s\n"
    (E2e.Jsonw.float_repr (if calib = [] then 0. else E2e.Quantiles.spread calib))
    (if drift then "unresolved: host drift" else "resolved");
  E2e.Jsonw.to_file
    (Filename.concat !out "results.json")
    E2e.Jsonw.(
      Obj
        [ ("set", String (if drift then "unresolved: host drift" else "resolved"));
          ("workloads", Obj (List.map (fun r -> (r.name, result_json r)) results)) ]);
  let names =
    match (results, tracing) with
    | [ _ ], true -> List.map fst per_layer
    | [ _ ], false -> List.map fst end_to_end
    | _ -> List.map fst (end_to_end @ per_layer)
  in
  print_endline (summary_line results ~names);
  exit (if List.for_all (fun r -> r.failed = 0) results then 0 else 1)
