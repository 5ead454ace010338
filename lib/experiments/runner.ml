type flow_spec = {
  label : string;
  sender : (module Tcp.Sender.S);
  count : int;
}

let parallel_map ~jobs f xs =
  if jobs <= 1 then List.map f xs
  else Array.to_list (Sim.Domain_pool.map ~jobs f (Array.of_list xs))

type fairness_result = {
  throughputs : (string * float) list;
  loss_rate : float;
}

let group result ~label =
  List.filter_map
    (fun (l, x) -> if l = label then Some x else None)
    result.throughputs

let all_throughputs result = List.map snd result.throughputs

type flow_result = {
  mbps : float;
  retransmits : float;
  spurious_duplicates : int;
}

let flow_result connection ~duration =
  { mbps =
      Stats.Throughput.mbps
        ~bytes:(Tcp.Connection.received_bytes connection)
        ~seconds:duration;
    retransmits =
      List.assoc "retransmits" (Tcp.Connection.sender_metrics connection);
    spurious_duplicates = Tcp.Connection.receiver_duplicates connection }

(* Fraction of data-sized packets lost to queue overflow anywhere in the
   network, over the whole run. *)
let measure_loss_rate network =
  let drops = Net.Network.total_queue_drops network in
  let delivered =
    List.fold_left
      (fun acc link -> acc + Net.Link.transmitted_packets link)
      0 (Net.Network.links network)
  in
  if drops + delivered = 0 then 0.
  else float_of_int drops /. float_of_int (drops + delivered)

let spawn_specs network ~specs ~src ~dst ~route_data ~route_ack ~config
    ~start_rng ~start_window =
  let next_flow = ref 0 in
  let spawn spec =
    let flows =
      Workload.Ftp.spawn network ~sender:spec.sender ~label:spec.label
        ~count:spec.count ~first_flow:!next_flow ~src ~dst ~route_data
        ~route_ack ~config ~start_rng ~start_window ()
    in
    next_flow := !next_flow + spec.count;
    flows
  in
  (List.concat_map spawn specs, next_flow)

let measure_window engine flows ~warmup ~window =
  Sim.Engine.run engine ~until:warmup;
  let snapshot = Workload.Ftp.snapshot_bytes flows in
  Sim.Engine.run engine ~until:(warmup +. window);
  Workload.Ftp.throughputs flows ~window_start_bytes:snapshot ~seconds:window

let dumbbell_fairness ?(seed = 1) ?(bottleneck_bandwidth_bps = 15e6)
    ?(config = Tcp.Config.default) ?(warmup = 40.) ?(window = 60.) ~specs () =
  let engine = Sim.Engine.create () in
  let dumbbell = Topo.Dumbbell.create engine ~bottleneck_bandwidth_bps () in
  let network = dumbbell.Topo.Dumbbell.network in
  let rng = Sim.Rng.create seed in
  let flows, _ =
    spawn_specs network ~specs ~src:dumbbell.Topo.Dumbbell.sources.(0)
      ~dst:dumbbell.Topo.Dumbbell.sinks.(0)
      ~route_data:(fun () -> Topo.Dumbbell.route_forward dumbbell ~pair:0)
      ~route_ack:(fun () -> Topo.Dumbbell.route_reverse dumbbell ~pair:0)
      ~config
      ~start_rng:(Sim.Rng.split rng "starts")
      ~start_window:5.
  in
  let throughputs = measure_window engine flows ~warmup ~window in
  { throughputs; loss_rate = measure_loss_rate network }

let parking_lot_fairness ?(seed = 1) ?(bandwidth_scale = 1.)
    ?(config = Tcp.Config.default) ?(warmup = 40.) ?(window = 60.) ~specs () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine ~bandwidth_scale () in
  let network = lot.Topo.Parking_lot.network in
  let rng = Sim.Rng.create seed in
  let flows, next_flow =
    spawn_specs network ~specs ~src:lot.Topo.Parking_lot.source
      ~dst:lot.Topo.Parking_lot.destination
      ~route_data:(fun () -> Topo.Parking_lot.route_forward lot)
      ~route_ack:(fun () -> Topo.Parking_lot.route_reverse lot)
      ~config
      ~start_rng:(Sim.Rng.split rng "starts")
      ~start_window:5.
  in
  let _cross =
    Workload.Cross_traffic.spawn lot ~flows_per_pair:1
      ~first_flow:!next_flow ~config
      ~start_rng:(Sim.Rng.split rng "cross-starts")
      ~start_window:5. ()
  in
  let throughputs = measure_window engine flows ~warmup ~window in
  { throughputs; loss_rate = measure_loss_rate network }

(* Several flows over the same lattice, every packet epsilon-routed
   independently per flow. *)
let multipath_fairness ?(seed = 1) ?(warmup = 20.) ?(duration = 80.) ~epsilon
    ~specs () =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine ~delay_s:0.010 () in
  let rng = Sim.Rng.create seed in
  let next_flow = ref 0 in
  let spawn spec =
    List.init spec.count (fun index ->
        let flow = !next_flow in
        incr next_flow;
        let suffix = Printf.sprintf "-%d-%d" flow index in
        let path = Scenario.eps_path ~suffix lattice rng ~epsilon in
        let start = Sim.Rng.split rng ("start" ^ suffix) in
        let at = Sim.Rng.float_range start ~lo:0. ~hi:2. in
        let connection =
          Scenario.connect path ~flow ~at ~sender:spec.sender
            ~config:Tcp.Config.default
        in
        { Workload.Ftp.label = spec.label; connection })
  in
  let flows = List.concat_map spawn specs in
  let throughputs = measure_window engine flows ~warmup ~window:(duration -. warmup) in
  { throughputs;
    loss_rate = measure_loss_rate lattice.Topo.Multipath_lattice.network }

let multipath_throughput ?(seed = 1) ?(delay_s = 0.010)
    ?(config = Tcp.Config.default) ?(warmup = 0.) ?(duration = 60.) ~epsilon
    ~sender () =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine ~delay_s () in
  let path = Scenario.eps_path lattice (Sim.Rng.create seed) ~epsilon in
  let connection = Scenario.connect path ~flow:0 ~at:0. ~sender ~config in
  Sim.Engine.run engine ~until:warmup;
  let at_warmup = Tcp.Connection.received_bytes connection in
  Sim.Engine.run engine ~until:duration;
  Stats.Throughput.of_window ~bytes_at_start:at_warmup
    ~bytes_at_end:(Tcp.Connection.received_bytes connection)
    ~seconds:(duration -. warmup)
