(* Congestion-window traces: TCP-PR and TCP-SACK sharing a dumbbell
   bottleneck, sampled twice per second. The CSV on stdout plots
   directly (e.g. gnuplot); the AIMD sawtooth of both protocols should
   interleave around the same operating point — the visual form of the
   paper's fairness argument.

   Run with: dune exec examples/cwnd_trace.exe > trace.csv *)

let () =
  let engine = Sim.Engine.create () in
  let dumbbell = Topo.Dumbbell.create engine () in
  let network = dumbbell.Topo.Dumbbell.network in
  let src = dumbbell.Topo.Dumbbell.sources.(0) in
  let dst = dumbbell.Topo.Dumbbell.sinks.(0) in
  let route_data () = Topo.Dumbbell.route_forward dumbbell ~pair:0 in
  let route_ack () = Topo.Dumbbell.route_reverse dumbbell ~pair:0 in
  let connect ~flow sender =
    let c =
      Tcp.Connection.create network ~flow ~src ~dst ~sender
        ~config:Tcp.Config.default ~route_data ~route_ack ()
    in
    Tcp.Connection.start c ~at:0.;
    c
  in
  let pr = connect ~flow:0 (snd Experiments.Variants.tcp_pr) in
  let sack = connect ~flow:1 (snd Experiments.Variants.tcp_sack) in
  let horizon = 60. in
  let pr_series = Experiments.Probe.cwnd_series engine pr ~interval:0.5 ~until:horizon in
  let sack_series =
    Experiments.Probe.cwnd_series engine sack ~interval:0.5 ~until:horizon
  in
  Sim.Engine.run engine ~until:horizon;
  print_endline "time,cwnd_tcp_pr,cwnd_tcp_sack";
  List.iter2
    (fun (time, pr_cwnd) (_, sack_cwnd) ->
      Printf.printf "%g,%.2f,%.2f\n" time pr_cwnd sack_cwnd)
    (Stats.Timeseries.to_list pr_series)
    (Stats.Timeseries.to_list sack_series)
