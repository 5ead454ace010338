let newton_accuracy () =
  let alpha = Tcp.Config.default.Tcp.Config.pr_alpha in
  List.concat_map
    (fun n ->
      List.map
        (fun cwnd ->
          let approx = Core.Ewrtt.newton ~alpha ~cwnd ~iterations:n in
          let exact = exp (log alpha /. cwnd) in
          (n, cwnd, approx, exact, Float.abs (approx -. exact) /. exact))
        [ 1.; 2.; 8.; 64.; 512. ])
    [ 1; 2; 4 ]

let multipath_pr ?seed ?duration ~config () =
  Runner.multipath_throughput ?seed ~warmup:5. ?duration ~epsilon:0.
    ~sender:(snd Variants.tcp_pr) ~config ()

let snapshot_halving ?seed ?duration ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun snapshot ->
      let config =
        { Tcp.Config.default with Tcp.Config.pr_snapshot_cwnd = snapshot }
      in
      (snapshot, multipath_pr ?seed ?duration ~config ()))
    [ true; false ]

(* A 8 Mb/s single path with 1-in-50 injected losses: drops arrive in
   bursts relative to the window, so halving once per burst (memorize
   on) versus once per drop (memorize off) separates clearly. *)
let memorize_run ?(seed = 1) ?(duration = 60.) ~memorize () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let source = Net.Network.add_node network in
  let sink = Net.Network.add_node network in
  let rng = Sim.Rng.create seed in
  let loss = Net.Loss_model.bernoulli (Sim.Rng.split rng "loss") ~p:0.02 in
  let _fwd =
    Net.Network.add_link network ~src:source ~dst:sink ~bandwidth_bps:8e6
      ~delay_s:0.030 ~capacity:50 ~loss ()
  in
  let _rev =
    Net.Network.add_link network ~src:sink ~dst:source ~bandwidth_bps:8e6
      ~delay_s:0.030 ~capacity:50 ()
  in
  let config = { Tcp.Config.default with Tcp.Config.pr_memorize = memorize } in
  let data_route = [| Net.Node.id sink |] in
  let ack_route = [| Net.Node.id source |] in
  let connection =
    Tcp.Connection.create network ~flow:0 ~src:source ~dst:sink
      ~sender:(snd Variants.tcp_pr) ~config
      ~route_data:(fun () -> data_route)
      ~route_ack:(fun () -> ack_route)
      ()
  in
  Tcp.Connection.start connection ~at:0.;
  Sim.Engine.run engine ~until:duration;
  Stats.Throughput.mbps
    ~bytes:(Tcp.Connection.received_bytes connection)
    ~seconds:duration

let memorize_list ?seed ?duration ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun memorize -> (memorize, memorize_run ?seed ?duration ~memorize ()))
    [ true; false ]

let beta_sweep ?seed ?duration ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun beta ->
      let config = { Tcp.Config.default with Tcp.Config.pr_beta = beta } in
      (beta, multipath_pr ?seed ?duration ~config ()))
    [ 1.0; 1.5; 2.; 3.; 5.; 10. ]

let beta_fairness ?seed ?(flows_per_protocol = 8) ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun beta ->
      let point =
        Fig4_param.run ?seed ~flows_per_protocol Fig2_fairness.Dumbbell
          ~alpha:Tcp.Config.default.Tcp.Config.pr_alpha ~beta ()
      in
      (beta, point.Fig4_param.mean_sack))
    [ 1.0; 2.; 3.; 5.; 10. ]
