(* End-to-end integration tests: every sender variant driven over the
   real simulated network — clean paths, lossy paths, reordering paths —
   plus small versions of the paper's experiments. *)

let variants =
  Experiments.Variants.
    [ tcp_pr; tcp_sack; newreno; td_fr; dsack_nm; inc_by_1; inc_by_n; ewma ]

let sack_sender = snd Experiments.Variants.tcp_sack

(* A single duplex path with optional loss injection on the data
   direction. *)
let single_path ?(loss = Net.Loss_model.perfect) ?(bandwidth = 8e6)
    ?(delay = 0.02) () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let source = Net.Network.add_node network in
  let sink = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src:source ~dst:sink ~bandwidth_bps:bandwidth
       ~delay_s:delay ~capacity:50 ~loss ());
  ignore
    (Net.Network.add_link network ~src:sink ~dst:source ~bandwidth_bps:bandwidth
       ~delay_s:delay ~capacity:50 ());
  (engine, network, source, sink)

let run_transfer ?loss ~total ~horizon (sender : (module Tcp.Sender.S)) =
  let engine, network, source, sink = single_path ?loss () in
  let config =
    { Tcp.Config.default with Tcp.Config.total_segments = Some total }
  in
  let connection =
    Tcp.Connection.create network ~flow:0 ~src:source ~dst:sink ~sender ~config
      ~route_data:(fun () -> [| Net.Node.id sink |])
      ~route_ack:(fun () -> [| Net.Node.id source |])
      ()
  in
  Tcp.Connection.start connection ~at:0.;
  Sim.Engine.run engine ~until:horizon;
  connection

let test_clean_transfer_completes (name, sender) =
  Alcotest.test_case (name ^ " clean transfer") `Quick (fun () ->
      let total = 500 in
      let c = run_transfer ~total ~horizon:60. sender in
      Alcotest.(check bool) "finished" true (Tcp.Connection.finished c);
      Alcotest.(check int) "every segment delivered in order" total
        (Tcp.Connection.received_segments c);
      Alcotest.(check bool) "finish time recorded" true
        (Tcp.Connection.finished_at c <> None);
      (* A clean path must need no retransmissions at all. *)
      Alcotest.(check int) "no duplicates at sink" 0
        (Tcp.Connection.receiver_duplicates c))

let test_lossy_transfer_completes (name, sender) =
  Alcotest.test_case (name ^ " 3% loss transfer") `Quick (fun () ->
      let rng = Sim.Rng.create 7 in
      let loss = Net.Loss_model.bernoulli rng ~p:0.03 in
      let total = 300 in
      let c = run_transfer ~loss ~total ~horizon:300. sender in
      Alcotest.(check bool) "finished despite loss" true
        (Tcp.Connection.finished c);
      Alcotest.(check int) "every segment delivered" total
        (Tcp.Connection.received_segments c))

(* Two parallel paths with very different delays, chosen alternately
   packet by packet: heavy persistent reordering but zero loss. TCP-PR
   must complete without a single (false) retransmission reaching the
   sink as duplicate... duplicates are allowed for the dupack-based
   variants — only completion is required of them. *)
let reordering_network () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let source = Net.Network.add_node network in
  let mid_fast = Net.Network.add_node network in
  let mid_slow = Net.Network.add_node network in
  let sink = Net.Network.add_node network in
  let duplex src dst delay =
    ignore
      (Net.Network.add_duplex network ~src ~dst ~bandwidth_bps:10e6
         ~delay_s:delay ~capacity:100 ())
  in
  duplex source mid_fast 0.005;
  duplex mid_fast sink 0.005;
  duplex source mid_slow 0.040;
  duplex mid_slow sink 0.040;
  let fast = [| Net.Node.id mid_fast; Net.Node.id sink |] in
  let slow = [| Net.Node.id mid_slow; Net.Node.id sink |] in
  let rev_fast = [| Net.Node.id mid_fast; Net.Node.id source |] in
  let rev_slow = [| Net.Node.id mid_slow; Net.Node.id source |] in
  (engine, network, source, sink, (fast, slow), (rev_fast, rev_slow))

let run_reordering ~total (sender : (module Tcp.Sender.S)) =
  let engine, network, source, sink, (fast, slow), (rev_fast, rev_slow) =
    reordering_network ()
  in
  let flip = ref false in
  let alternate a b () =
    flip := not !flip;
    if !flip then a else b
  in
  let config =
    { Tcp.Config.default with Tcp.Config.total_segments = Some total }
  in
  let connection =
    Tcp.Connection.create network ~flow:0 ~src:source ~dst:sink ~sender ~config
      ~route_data:(alternate fast slow)
      ~route_ack:(alternate rev_fast rev_slow)
      ()
  in
  Tcp.Connection.start connection ~at:0.;
  Sim.Engine.run engine ~until:300.;
  connection

let test_reordering_transfer_completes (name, sender) =
  Alcotest.test_case (name ^ " reordering transfer") `Quick (fun () ->
      let total = 300 in
      let c = run_reordering ~total sender in
      Alcotest.(check bool) "finished under reordering" true
        (Tcp.Connection.finished c);
      Alcotest.(check int) "every segment delivered" total
        (Tcp.Connection.received_segments c))

let test_tcp_pr_no_spurious_under_reordering () =
  (* The headline claim: persistent reordering with zero loss causes
     TCP-PR no retransmissions at all. *)
  let c = run_reordering ~total:400 (module Core.Tcp_pr) in
  Alcotest.(check bool) "finished" true (Tcp.Connection.finished c);
  Alcotest.(check int) "no duplicates at sink" 0
    (Tcp.Connection.receiver_duplicates c);
  let retx = List.assoc "retransmits" (Tcp.Connection.sender_metrics c) in
  Alcotest.(check (float 0.)) "no retransmissions" 0. retx

let test_sack_spurious_under_reordering () =
  (* And the contrast: plain SACK retransmits spuriously in the same
     conditions (every such retransmission arrives as a duplicate). *)
  let c = run_reordering ~total:400 sack_sender in
  Alcotest.(check bool) "sack does retransmit" true
    (Tcp.Connection.receiver_duplicates c > 0)

let test_fairness_small () =
  let result =
    Experiments.Runner.dumbbell_fairness ~seed:3 ~warmup:10. ~window:20.
      ~specs:(Experiments.Fig2_fairness.fairness_specs ~flows_per_protocol:2)
      ()
  in
  let all = Experiments.Runner.all_throughputs result in
  let label = fst Experiments.Variants.tcp_pr in
  let pr =
    Stats.Fairness.mean_normalized
      ~group:(Experiments.Runner.group result ~label)
      ~all
  in
  Alcotest.(check bool)
    (Printf.sprintf "TCP-PR mean normalized near 1 (got %.3f)" pr)
    true
    (pr > 0.7 && pr < 1.3)

let test_multipath_headline () =
  (* 20-second version of Fig. 6's extreme points. *)
  let throughput sender epsilon =
    Experiments.Runner.multipath_throughput ~seed:5 ~duration:20. ~epsilon
      ~sender ()
  in
  let pr_multi = throughput (module Core.Tcp_pr : Tcp.Sender.S) 0. in
  let sack_multi = throughput sack_sender 0. in
  let pr_single = throughput (module Core.Tcp_pr : Tcp.Sender.S) 500. in
  let sack_single = throughput sack_sender 500. in
  Alcotest.(check bool)
    (Printf.sprintf "PR multi-path beats single (%.1f vs %.1f)" pr_multi
       pr_single)
    true (pr_multi > pr_single *. 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "SACK collapses under reordering (%.1f vs %.1f)" sack_multi
       sack_single)
    true
    (sack_multi < sack_single /. 2.);
  Alcotest.(check bool)
    (Printf.sprintf "PR and SACK comparable single-path (%.1f vs %.1f)"
       pr_single sack_single)
    true
    (pr_single > sack_single *. 0.7)


(* The headline orderings must hold across seeds, not just for one lucky
   draw. *)
let test_multipath_ordering_stable_across_seeds () =
  List.iter
    (fun seed ->
      let tp sender =
        Experiments.Runner.multipath_throughput ~seed ~duration:15. ~epsilon:0.
          ~sender ()
      in
      let pr = tp (module Core.Tcp_pr : Tcp.Sender.S) in
      let sack = tp sack_sender in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: PR (%.1f) dominates SACK (%.1f)" seed pr sack)
        true
        (pr > 4. *. sack))
    [ 2; 3; 5 ]


(* Under full multi-path reordering, TCP-PR flows still share fairly
   among themselves and keep the aggregate bandwidth (extension: the
   paper measures one flow at a time). *)
let test_multipath_pr_fairness () =
  let r =
    Experiments.Runner.multipath_fairness ~seed:1 ~epsilon:0. ~warmup:15.
      ~duration:45.
      ~specs:
        [ { Experiments.Runner.label = "PR";
            sender = (module Core.Tcp_pr);
            count = 4 } ]
      ()
  in
  let all = Experiments.Runner.all_throughputs r in
  let total = List.fold_left ( +. ) 0. all in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate kept (%.1f Mb/s)" total)
    true (total > 20.);
  Alcotest.(check bool)
    (Printf.sprintf "fair among themselves (Jain %.3f)" (Stats.Fairness.jain all))
    true
    (Stats.Fairness.jain all > 0.8)

let test_cross_traffic_spawns () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let rng = Sim.Rng.create 11 in
  let flows =
    Workload.Cross_traffic.spawn lot ~flows_per_pair:2 ~first_flow:100
      ~config:Tcp.Config.default ~start_rng:rng ~start_window:1. ()
  in
  Alcotest.(check int) "12 cross flows" 12 (List.length flows);
  Sim.Engine.run engine ~until:5.;
  (* Every cross pair moves data. *)
  List.iter
    (fun flow ->
      Alcotest.(check bool)
        (flow.Workload.Ftp.label ^ " making progress")
        true
        (Tcp.Connection.received_segments flow.Workload.Ftp.connection > 0))
    flows

let test_ftp_snapshot_throughput () =
  let engine = Sim.Engine.create () in
  let d = Topo.Dumbbell.create engine () in
  let rng = Sim.Rng.create 13 in
  let flows =
    Workload.Ftp.spawn d.Topo.Dumbbell.network
      ~sender:sack_sender
      ~label:"ftp" ~count:1 ~first_flow:0 ~src:d.Topo.Dumbbell.sources.(0)
      ~dst:d.Topo.Dumbbell.sinks.(0)
      ~route_data:(fun () -> Topo.Dumbbell.route_forward d ~pair:0)
      ~route_ack:(fun () -> Topo.Dumbbell.route_reverse d ~pair:0)
      ~config:Tcp.Config.default ~start_rng:rng ~start_window:0. ()
  in
  Sim.Engine.run engine ~until:5.;
  let snapshot = Workload.Ftp.snapshot_bytes flows in
  Sim.Engine.run engine ~until:15.;
  let rates =
    Workload.Ftp.throughputs flows ~window_start_bytes:snapshot ~seconds:10.
  in
  match rates with
  | [ ("ftp", mbps) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "near bottleneck rate (got %.2f)" mbps)
      true
      (mbps > 10. && mbps < 15.5)
  | _ -> Alcotest.fail "expected one flow"

let () =
  Alcotest.run "integration"
    [ ("clean-path", List.map test_clean_transfer_completes variants);
      ("lossy-path", List.map test_lossy_transfer_completes variants);
      ("reordering-path", List.map test_reordering_transfer_completes variants);
      ( "paper-claims",
        [ Alcotest.test_case "TCP-PR immune to reordering" `Quick
            test_tcp_pr_no_spurious_under_reordering;
          Alcotest.test_case "SACK not immune" `Quick
            test_sack_spurious_under_reordering;
          Alcotest.test_case "fairness (small)" `Slow test_fairness_small;
          Alcotest.test_case "multipath headline" `Slow test_multipath_headline;
          Alcotest.test_case "ordering stable across seeds" `Slow
            test_multipath_ordering_stable_across_seeds;
          Alcotest.test_case "PR fairness under reordering" `Slow
            test_multipath_pr_fairness
        ] );
      ( "workload",
        [ Alcotest.test_case "cross traffic spawns" `Quick
            test_cross_traffic_spawns;
          Alcotest.test_case "ftp snapshot throughput" `Quick
            test_ftp_snapshot_throughput ] ) ]
