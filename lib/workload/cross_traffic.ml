let spawn (lot : Topo.Parking_lot.t) ~flows_per_pair ~first_flow ~config
    ~start_rng ~start_window () =
  let spawn_pair (pair : Topo.Parking_lot.cross_pair) =
    Ftp.spawn lot.Topo.Parking_lot.network
      ~sender:(Tcp.Sack_core.sender Tcp.Sack_core.create)
      ~label:(Printf.sprintf "cross-%d" pair.Topo.Parking_lot.index)
      ~count:flows_per_pair
      ~first_flow:(first_flow + (pair.Topo.Parking_lot.index * flows_per_pair))
      ~src:pair.Topo.Parking_lot.cross_source
      ~dst:pair.Topo.Parking_lot.cross_sink
      ~route_data:(fun () -> pair.Topo.Parking_lot.forward_route)
      ~route_ack:(fun () -> pair.Topo.Parking_lot.reverse_route)
      ~config ~start_rng ~start_window ()
  in
  List.concat_map spawn_pair lot.Topo.Parking_lot.cross_pairs
