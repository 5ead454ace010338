(* Benchmark harness. Every mode only measures and prints, except
   `record`, the one mode that writes a file.

   Usage: main.exe [micro|alloc|engine|gate|record]
     micro   bechamel micro-benchmarks of the hot paths: the event
             queue, the Newton ewrtt update, sender ACK processing, the
             receiver, epsilon-routing sampling and the pooled link
             pipeline
     alloc   bytes per simulated packet for every Alloc_suite scenario
             and bytes per ACK for every sender variant
     engine  the engine-only churn suite (Engine_suite): raw scheduler
             events/sec and bytes/event, print-only
     gate    FAIL (exit 1) if any of
               - bytes per simulated packet exceeds its
                 bench/baseline.json entry by more than 16 B/packet,
               - bytes per ACK for any sender variant exceeds its
                 entry by more than 16 B/ACK,
               - events/sec at 10k flows falls below 0.4x events/sec
                 at 1k flows in the same run (Scale_suite);
             a missing baseline file, block or entry fails as well.
             Reads bench/baseline.json, writes nothing (`make ci`).
     record  run the allocation suite and write its numbers to
             bench/baseline.json, the gate's only baseline
   With no argument: micro, alloc and engine. Anything else prints the
   usage line and exits 2.

   The paper's figures are the CLI's job (`tcp_pr_sim figN --quick`,
   `fig6 --extended --quick`, `jitter --quick`, `flaps --quick`,
   `ablate all --quick`, `scale --flows N`); bench/e2e is the
   repository's end-to-end speed benchmark. *)

type mode = Default | Micro | Alloc | Engine | Gate | Record

(* Parsed before any top-level benchmark value below builds an engine,
   so a misspelt mode costs nothing. *)
let mode =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> Default
  | [ "micro" ] -> Micro
  | [ "alloc" ] -> Alloc
  | [ "engine" ] -> Engine
  | [ "gate" ] -> Gate
  | [ "record" ] -> Record
  | _ ->
    prerr_endline "usage: main.exe [micro|alloc|engine|gate|record]";
    exit 2

open Bechamel
open Toolkit

let heading title = Printf.printf "\n===== %s =====\n%!" title

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

let bench_event_queue =
  Test.make ~name:"event_queue: 256 push + pop"
    (Staged.stage (fun () ->
         let q = Sim.Event_queue.create () in
         for i = 0 to 255 do
           ignore (Sim.Event_queue.push q ~time:(i * 7919 mod 256) i)
         done;
         while Sim.Event_queue.pop q <> None do
           ()
         done))

let bench_newton =
  Test.make ~name:"ewrtt: newton alpha^(1/cwnd), 2 iters"
    (Staged.stage (fun () ->
         ignore (Core.Ewrtt.newton ~alpha:0.995 ~cwnd:137. ~iterations:2)))

let bench_receiver =
  Test.make ~name:"receiver: 128 segments, 1-in-8 reordered"
    (Staged.stage (fun () ->
         let r = Tcp.Receiver.create Tcp.Config.default in
         for i = 0 to 127 do
           let seq = if i mod 8 = 0 && i + 1 < 128 then i + 1 else i in
           ignore (Tcp.Receiver.on_data r ~seq ())
         done))

let bench_pr_ack_processing =
  Test.make ~name:"tcp-pr: start + 64 acks"
    (Staged.stage (fun () ->
         let config =
           { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. }
         in
         let t = Core.Tcp_pr.create config in
         let buf = Tcp.Action_buffer.create () in
         Core.Tcp_pr.start t ~now:0. buf;
         for i = 0 to 63 do
           Tcp.Action_buffer.clear buf;
           let ack =
             { Tcp.Types.next = i + 1; sacks = []; dsack = None; for_seq = i; for_retx = false; serial = i; rwnd = Tcp.Types.rwnd_unbounded }
           in
           Core.Tcp_pr.on_ack t ~now:(0.01 *. float_of_int (i + 1)) ack buf
         done))

let bench_sack_ack_processing =
  Test.make ~name:"sack: start + 64 acks"
    (Staged.stage (fun () ->
         let config =
           { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. }
         in
         let t = Tcp.Sack_core.create config in
         let buf = Tcp.Action_buffer.create () in
         Tcp.Sack_core.start t ~now:0. buf;
         for i = 0 to 63 do
           Tcp.Action_buffer.clear buf;
           let ack =
             { Tcp.Types.next = i + 1; sacks = []; dsack = None; for_seq = i; for_retx = false; serial = i; rwnd = Tcp.Types.rwnd_unbounded }
           in
           Tcp.Sack_core.on_ack t ~now:(0.01 *. float_of_int (i + 1)) ack buf
         done))

let bench_epsilon_sampling =
  let rng = Sim.Rng.create 1 in
  let routing =
    Multipath.Epsilon_routing.create rng ~epsilon:1. ~costs:[| 0.; 1.; 2. |]
  in
  Test.make ~name:"epsilon-routing: sample"
    (Staged.stage (fun () -> ignore (Multipath.Epsilon_routing.sample routing)))

let bench_end_to_end =
  Test.make ~name:"simulator: 200-segment TCP-PR transfer"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let network = Net.Network.create engine in
         let a = Net.Network.add_node network in
         let b = Net.Network.add_node network in
         ignore
           (Net.Network.add_duplex network ~src:a ~dst:b ~bandwidth_bps:10e6
              ~delay_s:0.005 ~capacity:50 ());
         let config =
           { Tcp.Config.default with Tcp.Config.total_segments = Some 200 }
         in
         let data_route = [| Net.Node.id b |] in
         let ack_route = [| Net.Node.id a |] in
         let c =
           Tcp.Connection.create network ~flow:0 ~src:a ~dst:b
             ~sender:(module Core.Tcp_pr) ~config
             ~route_data:(fun () -> data_route)
             ~route_ack:(fun () -> ack_route)
             ()
         in
         Tcp.Connection.start c ~at:0.;
         Sim.Engine.run engine ~until:10.))

(* The pooled packet path in isolation: acquire from the pool, forward
   through a two-link chain, recycle at the sink. Steady state should
   run entirely off the free list. *)
let bench_link_pipeline =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  let c = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src:a ~dst:b ~bandwidth_bps:100e6
       ~delay_s:0.001 ~capacity:512 ());
  ignore
    (Net.Network.add_link network ~src:b ~dst:c ~bandwidth_bps:100e6
       ~delay_s:0.001 ~capacity:512 ());
  Net.Node.attach c ~flow:0 (fun packet ->
      Net.Network.release_packet network packet);
  let route = [| Net.Node.id b; Net.Node.id c |] in
  Test.make ~name:"link pipeline: 256 pooled packets, 2 hops"
    (Staged.stage (fun () ->
         for _ = 1 to 256 do
           let packet =
             Net.Network.make_packet network ~flow:0 ~src:(Net.Node.id a)
               ~dst:(Net.Node.id c) ~size:1500 ~route
               ~born:(Sim.Engine.now engine)
               (Net.Packet.Raw 0)
           in
           Net.Network.originate network ~from:a packet
         done;
         Sim.Engine.run_to_completion engine))

let microbenchmarks () =
  heading "Micro-benchmarks (bechamel, monotonic clock)";
  let tests =
    [ bench_event_queue;
      bench_newton;
      bench_receiver;
      bench_pr_ack_processing;
      bench_sack_ack_processing;
      bench_epsilon_sampling;
      bench_link_pipeline;
      bench_end_to_end ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let print_result test =
    let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
    let analysis = Analyze.all ols Instance.monotonic_clock results in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ time_per_run ] ->
          Printf.printf "  %-45s %12.1f ns/run\n%!" name time_per_run
        | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
      analysis
  in
  List.iter print_result tests

(* ------------------------------------------------------------------ *)
(* Allocation suite and engine suite                                   *)
(* ------------------------------------------------------------------ *)

(* A scenario whose measured phase did not exercise what it charges
   (see [Alloc_suite.scenario]) has no meaningful quotient: stop. *)
let alloc_packets () =
  heading "Allocation per simulated packet";
  match Alloc_suite.run_all () with
  | measurements ->
    List.iter Alloc_suite.pp_measurement measurements;
    List.map
      (fun m -> (m.Alloc_suite.scenario, m.Alloc_suite.bytes_per_packet))
      measurements
  | exception Failure reason ->
    Printf.printf "  FAILED: %s\n" reason;
    exit 1

let alloc_acks () =
  heading "Allocation per ACK (isolated on_ack churn)";
  let measurements = Alloc_suite.run_acks () in
  List.iter Alloc_suite.pp_ack_measurement measurements;
  List.map
    (fun m -> (m.Alloc_suite.variant, m.Alloc_suite.bytes_per_ack))
    measurements

let engine_suite () =
  heading "Engine-only churn: raw scheduler events/sec";
  List.iter Engine_suite.pp_measurement (Engine_suite.run_all ())

(* ------------------------------------------------------------------ *)
(* The baseline: bench/baseline.json                                   *)
(* ------------------------------------------------------------------ *)

(* Relative to the repository root, where `dune exec` and `make` run. *)
let baseline_path = "bench/baseline.json"

let record_command = "dune exec bench/main.exe -- record"

let packet_block = "alloc_bytes_per_packet"

let ack_block = "alloc_bytes_per_ack"

let record () =
  let packets = alloc_packets () in
  let acks = alloc_acks () in
  let block key rows =
    Printf.sprintf "  \"%s\": {\n%s\n  }" key
      (String.concat ",\n"
         (List.map (fun (name, v) -> Printf.sprintf "    \"%s\": %.1f" name v)
            rows))
  in
  let oc = open_out baseline_path in
  Printf.fprintf oc "{\n%s,\n%s\n}\n" (block packet_block packets)
    (block ack_block acks);
  close_out oc;
  Printf.printf "\nBaseline written to %s\n" baseline_path

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Minimal extraction of "<key>": { "name": nnn, ... } from the
   baseline — no JSON library in the tree, and the file is
   machine-written by [record] above, so a string scan is enough. *)
let record_block path key =
  let contents =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic; s
  in
  let find_sub haystack needle from =
    let n = String.length haystack and m = String.length needle in
    let rec go i =
      if i + m > n then None
      else if String.sub haystack i m = needle then Some i
      else go (i + 1)
    in
    go from
  in
  match find_sub contents (Printf.sprintf "\"%s\"" key) 0 with
  | None -> []
  | Some at -> (
    match (String.index_from_opt contents at '{',
           String.index_from_opt contents at '}') with
    | Some open_brace, Some close_brace when open_brace < close_brace ->
      let block =
        String.sub contents (open_brace + 1) (close_brace - open_brace - 1)
      in
      String.split_on_char ',' block
      |> List.filter_map (fun entry ->
             match String.split_on_char ':' entry with
             | [ name; value ] -> (
               let name = String.trim name and value = String.trim value in
               let name =
                 if String.length name >= 2 && name.[0] = '"' then
                   String.sub name 1 (String.length name - 2)
                 else name
               in
               match float_of_string_opt value with
               | Some v -> Some (name, v)
               | None -> None)
             | _ -> None)
    | _ -> [])

(* Absolute budget over the baseline, per packet-hop and per ACK: the
   packet path and the buffer-writing sender API allocate nothing per
   event beyond the harness constant, so the expected overhead of a
   correct change is zero. *)
let budget_bytes = 16.

(* [baseline key] is the block [key] of the baseline; a missing file
   or block fails the gate. *)
let baseline key =
  let missing what =
    Printf.printf "\nGate FAILED: %s %s. Record it with `%s`.\n"
      baseline_path what record_command;
    exit 1
  in
  if not (Sys.file_exists baseline_path) then missing "does not exist";
  match record_block baseline_path key with
  | [] -> missing (Printf.sprintf "has no %s block" key)
  | entries -> entries

(* [check ~unit base rows] prints each measured row against its
   baseline entry and exits 1 if any row is over budget or has no
   entry. *)
let check ~unit base rows =
  let failed = ref false in
  List.iter
    (fun (name, current) ->
      match List.assoc_opt name base with
      | None ->
        Printf.printf "  %-14s %7.1f %s, no baseline entry -> FAIL\n" name
          current unit;
        failed := true
      | Some base ->
        let limit = base +. budget_bytes in
        let ok = current <= limit in
        Printf.printf "  %-14s %7.1f %s vs baseline %7.1f (limit %7.1f)  %s\n"
          name current unit base limit
          (if ok then "ok" else "REGRESSION");
        if not ok then failed := true)
    rows;
  if !failed then begin
    Printf.printf
      "\nGate FAILED: %s over the %s baseline plus the %.0f B budget, or\n\
       missing from it. If the change is intended, re-record with\n\
       `%s` and commit the file.\n"
      unit baseline_path budget_bytes record_command;
    exit 1
  end
  else
    Printf.printf "\nGate passed (budget %.0f %s over %s).\n" budget_bytes
      unit baseline_path

let gate () =
  let packet_base = baseline packet_block in
  let ack_base = baseline ack_block in
  let packets = alloc_packets () in
  heading "Bench gate: bytes per simulated packet vs baseline";
  check ~unit:"B/packet" packet_base packets;
  let acks = alloc_acks () in
  heading "Bench gate: bytes per ACK vs baseline";
  check ~unit:"B/ack" ack_base acks;
  heading "Bench gate: events/sec scaling floor at 10x flow count";
  let small, large, ok = Scale_suite.gate_check () in
  Scale_suite.pp_measurement small;
  Scale_suite.pp_measurement large;
  let ratio =
    large.Scale_suite.events_per_s
    /. Float.max small.Scale_suite.events_per_s 1e-9
  in
  Printf.printf "  events/sec at %d flows is %.2fx of %d flows (floor %.2f)  %s\n"
    large.Scale_suite.flows ratio small.Scale_suite.flows
    Scale_suite.gate_scaling_floor
    (if ok then "ok" else "REGRESSION");
  if not ok then begin
    Printf.printf
      "\nGate FAILED: per-event cost grows too fast with the timer\n\
       population — the timing wheel should keep scheduler cost flat.\n";
    exit 1
  end
  else
    Printf.printf "\nGate passed (scale floor %.2f).\n"
      Scale_suite.gate_scaling_floor

let () =
  match mode with
  | Default ->
    microbenchmarks ();
    ignore (alloc_packets ());
    ignore (alloc_acks ());
    engine_suite ()
  | Micro -> microbenchmarks ()
  | Alloc ->
    ignore (alloc_packets ());
    ignore (alloc_acks ())
  | Engine -> engine_suite ()
  | Gate -> gate ()
  | Record -> record ()
