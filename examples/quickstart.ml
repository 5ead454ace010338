(* Quickstart: one TCP-PR flow and one TCP-SACK flow sharing a dumbbell
   bottleneck. With no reordering in the network the two should split
   the 15 Mb/s bottleneck roughly evenly (the paper's fairness claim,
   Section 4).

   Run with: dune exec examples/quickstart.exe *)

let () =
  let engine = Sim.Engine.create () in
  let dumbbell = Topo.Dumbbell.create engine () in
  let network = dumbbell.Topo.Dumbbell.network in
  let src = dumbbell.Topo.Dumbbell.sources.(0) in
  let dst = dumbbell.Topo.Dumbbell.sinks.(0) in
  let route_data () = Topo.Dumbbell.route_forward dumbbell ~pair:0 in
  let route_ack () = Topo.Dumbbell.route_reverse dumbbell ~pair:0 in
  let config = Tcp.Config.default in
  let connect ~flow (label, sender) =
    let connection =
      Tcp.Connection.create network ~flow ~src ~dst ~sender ~config
        ~route_data ~route_ack ()
    in
    Tcp.Connection.start connection ~at:0.;
    (label, connection)
  in
  let pr = connect ~flow:0 Experiments.Variants.tcp_pr in
  let sack = connect ~flow:1 Experiments.Variants.tcp_sack in
  let horizon = 60. in
  Sim.Engine.run engine ~until:horizon;
  let report (label, connection) =
    let mbps =
      Stats.Throughput.mbps
        ~bytes:(Tcp.Connection.received_bytes connection)
        ~seconds:horizon
    in
    Printf.printf "%-8s  %6.2f Mb/s  (cwnd %.1f)\n" label mbps
      (Tcp.Connection.cwnd connection)
  in
  Printf.printf "Two flows sharing a 15 Mb/s dumbbell for %.0f s:\n" horizon;
  report pr;
  report sack
