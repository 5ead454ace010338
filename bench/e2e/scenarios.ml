(* The four workloads, built from the library's public constructors so
   that the benchmark owns every call it times.

   Each workload is a list of cells; a cell is one simulation: [prepare]
   builds the engine, topology and connections (set-up), and the
   prepared cell's [run] is the timed phase — the [Sim.Engine.run]
   calls. A cell reproduces one of the library's runners exactly
   ([Experiments.Runner.multipath_throughput],
   [Experiments.Runner.dumbbell_fairness], [Experiments.Scale.run]); the
   cross-check in [Run] compares the two at toy size. *)

(* What a traced run substitutes: timed senders and routes. The plain
   hooks change nothing. *)
type hooks = {
  sender : string * (module Tcp.Sender.S) -> (module Tcp.Sender.S);
  route : 'a. ('a -> int array) -> 'a -> int array;
}

let plain = { sender = snd; route = (fun f -> f) }

type prepared = {
  network : Net.Network.t;
  engine : Sim.Engine.t;
  sinks : int list;  (** node ids where data arrives *)
  flows : int;  (** connections (fig6, fig2) or user slots (churn) *)
  config : Tcp.Config.t;  (** the receivers' configuration *)
  run : lap:(unit -> unit) -> unit;
      (** runs the simulation in fixed slices of simulated time, calling
          [lap] after each *)
  outputs : unit -> float list;
      (** simulated results, read after [run]: goodputs, loss rate,
          transfer counts *)
}

(* [reference] computes [outputs] with the library runner the cell
   reproduces. *)
type cell = {
  label : string;
  prepare : hooks -> prepared;
  reference : unit -> float list;
}

type size = Full | Smoke

(* Runs [engine] from its current time to [until] in slices of [slice]
   simulated seconds, calling [lap] after each. A slice is the same
   stretch of simulation in every repetition of a seed, so its host
   times can be compared across repetitions. *)
let advance engine ~slice ~lap ~until =
  let rec go from =
    let next = from +. slice in
    if next >= until then begin
      Sim.Engine.run engine ~until;
      lap ()
    end
    else begin
      Sim.Engine.run engine ~until:next;
      lap ();
      go next
    end
  in
  go (Sim.Engine.now engine)

(* --- fig6-lattice: one flow per (variant, epsilon) cell ----------------- *)

let fig6_epsilons = [ 0.; 4.; 500. ]

let fig6_cell ~seed ~warmup ~duration ~slice ~epsilon ((label, _) as variant) =
  let prepare hooks =
    let engine = Sim.Engine.create () in
    let lattice = Topo.Multipath_lattice.create engine ~delay_s:0.010 () in
    let network = lattice.Topo.Multipath_lattice.network in
    let rng = Sim.Rng.create seed in
    let sampler name =
      Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng name) ~epsilon
        lattice
    in
    let forward = sampler "fwd" in
    let reverse = sampler "rev" in
    let config = Tcp.Config.default in
    let dst = lattice.Topo.Multipath_lattice.destination in
    let connection =
      Tcp.Connection.create network ~flow:0
        ~src:lattice.Topo.Multipath_lattice.source ~dst
        ~sender:(hooks.sender variant) ~config
        ~route_data:
          (hooks.route (fun () ->
               Multipath.Epsilon_routing.route forward
                 lattice.Topo.Multipath_lattice.forward_routes))
        ~route_ack:
          (hooks.route (fun () ->
               Multipath.Epsilon_routing.route reverse
                 lattice.Topo.Multipath_lattice.reverse_routes))
        ()
    in
    Tcp.Connection.start connection ~at:0.;
    let goodput = ref nan in
    let run ~lap =
      advance engine ~slice ~lap ~until:warmup;
      let at_warmup = Tcp.Connection.received_bytes connection in
      advance engine ~slice ~lap ~until:duration;
      goodput :=
        Stats.Throughput.of_window ~bytes_at_start:at_warmup
          ~bytes_at_end:(Tcp.Connection.received_bytes connection)
          ~seconds:(duration -. warmup)
    in
    { network;
      engine;
      sinks = [ Net.Node.id dst ];
      flows = 1;
      config;
      run;
      outputs = (fun () -> [ !goodput ]) }
  in
  let reference () =
    [ Experiments.Runner.multipath_throughput ~seed ~delay_s:0.010 ~warmup
        ~duration ~epsilon ~sender:(snd variant) () ]
  in
  { label = Printf.sprintf "%s eps=%g" (Experiments.Variants.canonical label) epsilon;
    prepare;
    reference }

let fig6 ~seed size =
  let warmup, duration, slice =
    match size with Full -> (20., 60., 1.) | Smoke -> (0.25, 0.75, 0.1)
  in
  List.concat_map
    (fun variant ->
      List.map
        (fun epsilon -> fig6_cell ~seed ~warmup ~duration ~slice ~epsilon variant)
        fig6_epsilons)
    Experiments.Variants.fig6

(* --- fig2-dumbbell: 32 TCP-PR + 32 TCP-SACK long-lived flows ----------- *)

(* [Experiments.Runner]'s loss rate: queue drops over data-sized
   transmissions plus drops, network-wide. *)
let loss_rate network =
  let drops = Net.Network.total_queue_drops network in
  let delivered =
    List.fold_left
      (fun acc link -> acc + Net.Link.transmitted_packets link)
      0 (Net.Network.links network)
  in
  if drops + delivered = 0 then 0.
  else float_of_int drops /. float_of_int (drops + delivered)

let fig2_specs ~per_protocol : Experiments.Runner.flow_spec list =
  List.map
    (fun (label, sender) -> { Experiments.Runner.label; sender; count = per_protocol })
    [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]

let fig2_cell ~seed ~warmup ~window ~slice ~per_protocol =
  let prepare hooks =
    let engine = Sim.Engine.create () in
    let dumbbell =
      Topo.Dumbbell.create engine ~bottleneck_bandwidth_bps:15e6 ()
    in
    let network = dumbbell.Topo.Dumbbell.network in
    let rng = Sim.Rng.create seed in
    let start_rng = Sim.Rng.split rng "starts" in
    let config = Tcp.Config.default in
    let src = dumbbell.Topo.Dumbbell.sources.(0) in
    let dst = dumbbell.Topo.Dumbbell.sinks.(0) in
    let route_data =
      hooks.route (fun () -> Topo.Dumbbell.route_forward dumbbell ~pair:0)
    in
    let route_ack =
      hooks.route (fun () -> Topo.Dumbbell.route_reverse dumbbell ~pair:0)
    in
    let next_flow = ref 0 in
    let flows =
      List.concat_map
        (fun (spec : Experiments.Runner.flow_spec) ->
          let first_flow = !next_flow in
          next_flow := first_flow + spec.count;
          Workload.Ftp.spawn network
            ~sender:(hooks.sender (spec.label, spec.sender))
            ~label:spec.label ~count:spec.count ~first_flow ~src ~dst
            ~route_data ~route_ack ~config ~start_rng ~start_window:5. ())
        (fig2_specs ~per_protocol)
    in
    let throughputs = ref [] in
    let run ~lap =
      advance engine ~slice ~lap ~until:warmup;
      let snapshot = Workload.Ftp.snapshot_bytes flows in
      advance engine ~slice ~lap ~until:(warmup +. window);
      throughputs :=
        List.map snd
          (Workload.Ftp.throughputs flows ~window_start_bytes:snapshot
             ~seconds:window)
    in
    { network;
      engine;
      sinks = [ Net.Node.id dst ];
      flows = List.length flows;
      config;
      run;
      outputs = (fun () -> loss_rate network :: !throughputs) }
  in
  let reference () =
    let r =
      Experiments.Runner.dumbbell_fairness ~seed ~warmup ~window
        ~specs:(fig2_specs ~per_protocol) ()
    in
    r.Experiments.Runner.loss_rate :: Experiments.Runner.all_throughputs r
  in
  { label = "dumbbell"; prepare; reference }

let fig2 ~seed size =
  let warmup, window, slice =
    match size with Full -> (20., 600., 1.) | Smoke -> (2., 10., 0.5)
  in
  [ fig2_cell ~seed ~warmup ~window ~slice ~per_protocol:32 ]

(* --- churn-*: closed-loop flow churn in the Experiments.Scale shape ----- *)

let churn_cell ~seed ~flows ~duration ~slice =
  let prepare hooks =
    let config = Experiments.Scale.default_config in
    let timer_granularity =
      if config.Tcp.Config.timer_granularity > 0. then
        config.Tcp.Config.timer_granularity
      else 1e-3
    in
    let engine = Sim.Engine.create ~timer_granularity () in
    (* Experiments.Scale.run's capacity scaling. *)
    let pairs = min flows 32 in
    let bottleneck_bandwidth_bps = Float.max 10e6 (float_of_int flows *. 1e6) in
    let access_bandwidth_bps =
      Float.max 100e6 (4. *. bottleneck_bandwidth_bps /. float_of_int pairs)
    in
    let queue_capacity = max 64 (flows / 2) in
    let dumbbell =
      Topo.Dumbbell.create engine ~pairs ~bottleneck_bandwidth_bps
        ~bottleneck_delay_s:0.020 ~access_bandwidth_bps ~access_delay_s:0.001
        ~queue_capacity ~access_queue_capacity:(2 * queue_capacity) ()
    in
    let rng = Sim.Rng.create seed in
    let ep = Workload.Flow_churn.endpoints_of_dumbbell dumbbell in
    let ep =
      { ep with
        Workload.Flow_churn.route_data = hooks.route ep.Workload.Flow_churn.route_data;
        route_ack = hooks.route ep.Workload.Flow_churn.route_ack }
    in
    let churn = Experiments.Scale.default_churn ~flows ~duration in
    let workload =
      Workload.Flow_churn.spawn_endpoints ep
        ~sender:(hooks.sender Experiments.Variants.tcp_pr)
        ~config ~churn
        ~rngs:(Workload.Flow_churn.slot_rngs rng ~flows)
        ()
    in
    { network = dumbbell.Topo.Dumbbell.network;
      engine;
      sinks = Array.to_list (Array.map Net.Node.id dumbbell.Topo.Dumbbell.sinks);
      flows;
      config;
      run = (fun ~lap -> advance engine ~slice ~lap ~until:duration);
      outputs =
        (fun () ->
          List.map float_of_int
            [ Workload.Flow_churn.transfers_started workload;
              Workload.Flow_churn.transfers_completed workload;
              Workload.Flow_churn.segments_completed workload;
              Sim.Engine.events_executed engine;
              Sim.Engine.timer_arms engine;
              Sim.Engine.timer_cancels engine;
              Sim.Engine.timer_fires engine ]) }
  in
  let reference () =
    let r = Experiments.Scale.run ~seed ~duration ~flows () in
    List.map float_of_int
      Experiments.Scale.
        [ r.transfers_started;
          r.transfers_completed;
          r.segments_completed;
          r.events_executed;
          r.timer_arms;
          r.timer_cancels;
          r.timer_fires ]
  in
  { label = Printf.sprintf "churn flows=%d" flows; prepare; reference }

(* About 100 slices of 35-55 ms host time each at full size. *)
let churn ~seed ~flows ~duration size =
  let duration = match size with Full -> duration | Smoke -> Float.min duration 0.3 in
  [ churn_cell ~seed ~flows ~duration ~slice:(duration /. 100.) ]

(* --- the catalogue ------------------------------------------------------ *)

type workload = {
  name : string;
  default_seed : int;
  cells : seed:int -> size -> cell list;
}

let workloads =
  [ { name = "fig6-lattice"; default_seed = 1; cells = fig6 };
    { name = "fig2-dumbbell"; default_seed = 1; cells = fig2 };
    { name = "churn-10k";
      default_seed = 0;
      cells = churn ~flows:10_000 ~duration:4. };
    { name = "churn-1k";
      default_seed = 0;
      cells = churn ~flows:1_000 ~duration:60. } ]

let find name = List.find_opt (fun w -> w.name = name) workloads
