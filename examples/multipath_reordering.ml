(* The paper's headline scenario: one flow over epsilon-parameterised
   multi-path routing (Fig. 5 / Fig. 6). Every packet — data and ACK —
   independently samples one of three node-disjoint paths of 3/4/5 hops,
   so reordering is persistent in both directions. TCP-PR should retain
   the aggregate multi-path bandwidth at epsilon = 0 while
   duplicate-ACK-based variants collapse.

   Run with: dune exec examples/multipath_reordering.exe *)

let variants = Experiments.Variants.[ tcp_pr; tcp_sack; td_fr; dsack_nm ]

let run ~epsilon ~sender =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine () in
  let network = lattice.Topo.Multipath_lattice.network in
  let rng = Sim.Rng.create 42 in
  let forward =
    Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng "fwd") ~epsilon
      lattice
  in
  let reverse =
    Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng "rev") ~epsilon
      lattice
  in
  let connection =
    Tcp.Connection.create network ~flow:0
      ~src:lattice.Topo.Multipath_lattice.source
      ~dst:lattice.Topo.Multipath_lattice.destination ~sender
      ~config:Tcp.Config.default
      ~route_data:(fun () ->
        Multipath.Epsilon_routing.route forward
          lattice.Topo.Multipath_lattice.forward_routes)
      ~route_ack:(fun () ->
        Multipath.Epsilon_routing.route reverse
          lattice.Topo.Multipath_lattice.reverse_routes)
      ()
  in
  Tcp.Connection.start connection ~at:0.;
  let horizon = 60. in
  Sim.Engine.run engine ~until:horizon;
  Stats.Throughput.mbps
    ~bytes:(Tcp.Connection.received_bytes connection)
    ~seconds:horizon

let () =
  let epsilons = [ 0.; 1.; 4.; 10.; 500. ] in
  let table =
    Stats.Table.create
      ~columns:
        ("variant" :: List.map (fun e -> Printf.sprintf "eps=%g" e) epsilons)
  in
  let add (label, sender) =
    let row = List.map (fun epsilon -> run ~epsilon ~sender) epsilons in
    Stats.Table.add_float_row table ~decimals:2 label row
  in
  List.iter add variants;
  print_endline
    "Throughput (Mb/s) under multi-path routing, 3 disjoint paths of 10 Mb/s:";
  Stats.Table.print table
