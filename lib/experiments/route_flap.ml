let fast_delay = 0.005

let slow_delay = 0.040

let flap_interval = 1.

let run ?(duration = 60.) ~sender () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let source = Net.Network.add_node network in
  let sink = Net.Network.add_node network in
  let via delay =
    let mid = Net.Network.add_node network in
    ignore
      (Net.Network.add_duplex network ~src:source ~dst:mid ~bandwidth_bps:10e6
         ~delay_s:delay ~capacity:100 ());
    ignore
      (Net.Network.add_duplex network ~src:mid ~dst:sink ~bandwidth_bps:10e6
         ~delay_s:delay ~capacity:100 ());
    mid
  in
  let fast = via fast_delay in
  let slow = via slow_delay in
  (* The active route is a function of simulated time alone: everything
     in one residence period follows the same path, and each flap
     reorders whatever is still in flight on the other path. *)
  let fast_active () =
    let period = int_of_float (Sim.Engine.now engine /. flap_interval) in
    period mod 2 = 0
  in
  let data_fast = [| Net.Node.id fast; Net.Node.id sink |] in
  let data_slow = [| Net.Node.id slow; Net.Node.id sink |] in
  let ack_fast = [| Net.Node.id fast; Net.Node.id source |] in
  let ack_slow = [| Net.Node.id slow; Net.Node.id source |] in
  let route_data () = if fast_active () then data_fast else data_slow in
  let route_ack () = if fast_active () then ack_fast else ack_slow in
  let connection =
    Tcp.Connection.create network ~flow:0 ~src:source ~dst:sink ~sender
      ~config:Tcp.Config.default ~route_data ~route_ack ()
  in
  Tcp.Connection.start connection ~at:0.;
  Sim.Engine.run engine ~until:duration;
  Runner.flow_result connection ~duration

let variants =
  [ Variants.tcp_pr; Variants.tcp_sack; Variants.td_fr; Variants.rack ]

let compare ?duration ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun (label, sender) -> (label, run ?duration ~sender ()))
    variants
