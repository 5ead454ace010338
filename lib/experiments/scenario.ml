type path = {
  network : Net.Network.t;
  src : Net.Node.t;
  dst : Net.Node.t;
  route_data : unit -> int array;
  route_ack : unit -> int array;
  samplers : Multipath.Epsilon_routing.t list;
}

let fixed network ~src ~dst ~data ~ack =
  { network;
    src;
    dst;
    route_data = (fun () -> data);
    route_ack = (fun () -> ack);
    samplers = [] }

let dumbbell ?(bandwidth_scale = 1.) ?(queue = 10) ?loss ?jitter engine =
  let topo =
    Topo.Dumbbell.create engine
      ~bottleneck_bandwidth_bps:(1.5e6 *. bandwidth_scale)
      ~queue_capacity:queue ?bottleneck_loss:loss ?bottleneck_jitter:jitter ()
  in
  fixed topo.Topo.Dumbbell.network ~src:topo.Topo.Dumbbell.sources.(0)
    ~dst:topo.Topo.Dumbbell.sinks.(0)
    ~data:(Topo.Dumbbell.route_forward topo ~pair:0)
    ~ack:(Topo.Dumbbell.route_reverse topo ~pair:0)

let coalesce_sink path (timer_s, max_burst) =
  let sink = Net.Node.id path.dst in
  List.iter
    (fun link ->
      if Net.Link.dst link = sink then
        Net.Link.set_coalescing link ~timer_s ~max_burst)
    (Net.Network.links path.network)

let hoststack engine =
  let path = dumbbell engine in
  coalesce_sink path (0.001, 4);
  path

let parking_lot ~bandwidth_scale engine =
  let topo = Topo.Parking_lot.create engine ~bandwidth_scale () in
  fixed topo.Topo.Parking_lot.network ~src:topo.Topo.Parking_lot.source
    ~dst:topo.Topo.Parking_lot.destination
    ~data:(Topo.Parking_lot.route_forward topo)
    ~ack:(Topo.Parking_lot.route_reverse topo)

let lattice ?bandwidth_bps ?loss ?jitter engine =
  Topo.Multipath_lattice.create engine ~path_hops:[ 2; 3; 4 ] ?bandwidth_bps
    ?loss ?jitter ()

let eps_path ?(suffix = "") lattice rng ~epsilon =
  let sampler label =
    Multipath.Epsilon_routing.for_lattice
      (Sim.Rng.split rng (label ^ suffix))
      ~epsilon lattice
  in
  let fwd = sampler "fwd" in
  let rev = sampler "rev" in
  let forward = lattice.Topo.Multipath_lattice.forward_routes in
  let reverse = lattice.Topo.Multipath_lattice.reverse_routes in
  { network = lattice.Topo.Multipath_lattice.network;
    src = lattice.Topo.Multipath_lattice.source;
    dst = lattice.Topo.Multipath_lattice.destination;
    route_data = (fun () -> Multipath.Epsilon_routing.route fwd forward);
    route_ack = (fun () -> Multipath.Epsilon_routing.route rev reverse);
    samplers = [ fwd; rev ] }

let set_epsilon path ~epsilon =
  List.iter
    (fun sampler -> Multipath.Epsilon_routing.set_epsilon sampler ~epsilon)
    path.samplers

let rotating lattice =
  let forward = lattice.Topo.Multipath_lattice.forward_routes in
  let reverse = lattice.Topo.Multipath_lattice.reverse_routes in
  let current = ref 0 in
  ( { network = lattice.Topo.Multipath_lattice.network;
      src = lattice.Topo.Multipath_lattice.source;
      dst = lattice.Topo.Multipath_lattice.destination;
      route_data = (fun () -> forward.(!current));
      route_ack = (fun () -> reverse.(!current));
      samplers = [] },
    fun () -> current := (!current + 1) mod Array.length forward )

let jitter_chain ?(jitter = 0.005) engine rng =
  let network = Net.Network.create engine in
  let source = Net.Network.add_node network in
  let mid = Net.Network.add_node network in
  let sink = Net.Network.add_node network in
  let link ~src ~dst label =
    ignore
      (Net.Network.add_link network ~src ~dst ~bandwidth_bps:10e6
         ~delay_s:0.020 ~capacity:100
         ?jitter:
           (if jitter > 0. then Some (Sim.Rng.split rng label, jitter)
            else None)
         ())
  in
  let duplex ~src ~dst label =
    link ~src ~dst label;
    link ~src:dst ~dst:src (label ^ "-rev")
  in
  duplex ~src:source ~dst:mid "hop1";
  duplex ~src:mid ~dst:sink "hop2";
  fixed network ~src:source ~dst:sink
    ~data:[| Net.Node.id mid; Net.Node.id sink |]
    ~ack:[| Net.Node.id mid; Net.Node.id source |]

let connect ?probe ?sketch path ~flow ~at ~sender ~config =
  let connection =
    Tcp.Connection.create ?probe ?sketch path.network ~flow ~src:path.src
      ~dst:path.dst ~sender ~config ~route_data:path.route_data
      ~route_ack:path.route_ack ()
  in
  Tcp.Connection.start connection ~at;
  connection

let race ?probe path ~flow ~at ~sender ~config =
  let main = connect ?probe path ~flow ~at ~sender ~config in
  ignore
    (connect ?probe path ~flow:(flow + 1) ~at:(at +. 0.05)
       ~sender:(snd Variants.tcp_sack) ~config);
  main

let bounded_config segments =
  { Tcp.Config.default with
    Tcp.Config.total_segments = Some segments;
    min_rto = 0.2;
    initial_rto = 1.;
    max_rto = 16. }

let hoststack_config ?app_rate segments =
  { (bounded_config segments) with
    Tcp.Config.rcv_buf_segments = Some 16;
    rcv_buf_max_segments = 24;
    rcv_autotune = true;
    rcv_app_rate = app_rate }
