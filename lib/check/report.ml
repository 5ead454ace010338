(* The `tcp_pr_sim report` backend: run a small fixed-seed scenario per
   sender variant, collect the full metric registry, and render one
   readable snapshot.

   Determinism contract: every variant runs on its own engine and its
   own registry, variants are mapped with [Runner.parallel_map] (which
   preserves input order), and rendering only touches per-variant
   results — so the output is byte-identical for any [--jobs], which
   the golden test enforces. The header deliberately omits anything
   host- or parallelism-dependent. *)

module Scenario = Experiments.Scenario

type scenario =
  | Dumbbell
  | Lattice
  | Jitter_chain

let scenario_name = function
  | Dumbbell -> "dumbbell"
  | Lattice -> "lattice"
  | Jitter_chain -> "jitter-chain"

let scenario_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dumbbell" -> Some Dumbbell
  | "lattice" -> Some Lattice
  | "jitter-chain" | "jitter_chain" | "jitter" -> Some Jitter_chain
  | _ -> None

let scenarios = [ Dumbbell; Lattice; Jitter_chain ]

(* Bounded transfers keep a full report under a second while still
   covering slow start, recovery, and (on the lattice) persistent
   reordering. *)
let segments = 200

let time_limit = 60.

(* All randomness derives from [seed]. *)
let path scenario engine ~seed =
  match scenario with
  | Dumbbell -> Scenario.dumbbell engine
  | Lattice ->
    (* epsilon = 0: uniform path choice, maximal persistent
       reordering. *)
    Scenario.eps_path (Scenario.lattice engine) (Sim.Rng.create seed)
      ~epsilon:0.
  | Jitter_chain -> Scenario.jitter_chain engine (Sim.Rng.create seed)

type variant_result = {
  variant : string;
  rows : (string * string) list;
  tail_lines : string list;
}

let run_variant ~seed ~scenario ~tail (variant, sender) =
  let engine = Sim.Engine.create () in
  let path = path scenario engine ~seed in
  let probe = Tcp.Probe.create () in
  let recorder =
    if tail > 0 then Some (Obs.Flight_recorder.attach ~capacity:tail probe)
    else None
  in
  (* The data-plane reorder detector taps every sink arrival; its rows
     render only when it actually flags reordering, so the dumbbell
     variants keep their reports unchanged. *)
  let sketch = Obs.Reorder_sketch.create () in
  let connection =
    Scenario.connect ~probe ~sketch path ~flow:0 ~at:0. ~sender
      ~config:(Scenario.bounded_config segments)
  in
  Sim.Engine.run engine ~until:time_limit;
  let registry = Obs.Registry.create () in
  Telemetry.network registry path.Scenario.network
    ~now:(Sim.Engine.now engine);
  Telemetry.connection registry connection;
  Telemetry.reorder_sketch registry sketch;
  Obs.Registry.set_value registry "run.duration" (Sim.Engine.now engine);
  Obs.Registry.set_value registry "run.finished"
    (if Tcp.Connection.finished connection then 1. else 0.);
  { variant;
    rows = Obs.Export.rows registry;
    tail_lines =
      (match recorder with
      | Some r -> List.map Tcp.Probe.to_line (Obs.Flight_recorder.to_list r)
      | None -> []) }

let compute ?(tail = 0) ~seed ~jobs ~scenario ~variants () =
  Experiments.Runner.parallel_map ~jobs
    (fun variant -> run_variant ~seed ~scenario ~tail variant)
    variants

let render_text ~seed ~scenario results =
  let buffer = Buffer.create 8192 in
  Buffer.add_string buffer
    (Printf.sprintf "tcp_pr_sim report — scenario=%s seed=%d segments=%d\n"
       (scenario_name scenario) seed segments);
  List.iter
    (fun result ->
      Buffer.add_string buffer
        (Printf.sprintf "\n== variant: %s ==\n" result.variant);
      let table = Stats.Table.create ~columns:[ "metric"; "value" ] in
      List.iter
        (fun (name, value) -> Stats.Table.add_row table [ name; value ])
        result.rows;
      Buffer.add_string buffer (Stats.Table.to_string table);
      if result.tail_lines <> [] then begin
        Buffer.add_string buffer
          (Printf.sprintf "last %d probe events:\n"
             (List.length result.tail_lines));
        List.iter
          (fun line -> Buffer.add_string buffer ("  " ^ line ^ "\n"))
          result.tail_lines
      end)
    results;
  Buffer.contents buffer

let render_csv ~scenario results =
  let buffer = Buffer.create 8192 in
  Buffer.add_string buffer "scenario,variant,metric,value\n";
  List.iter
    (fun result ->
      List.iter
        (fun (name, value) ->
          Buffer.add_string buffer
            (Printf.sprintf "%s,%s,%s,%s\n" (scenario_name scenario)
               result.variant name value))
        result.rows)
    results;
  Buffer.contents buffer

let render ?(csv = false) ?(tail = 0) ~seed ~jobs ~scenario ~variants () =
  let results = compute ~tail ~seed ~jobs ~scenario ~variants () in
  if csv then render_csv ~scenario results
  else render_text ~seed ~scenario results
