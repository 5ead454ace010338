type point = {
  topology : Fig2_fairness.topology;
  bandwidth_scale : float;
  loss_rate_pct : float;
  cov_pr : float;
  cov_sack : float;
  mean_pr : float;
  mean_sack : float;
}

let run ?seed ?warmup ?window ?(flows_per_protocol = 8) topology
    ~bandwidth_scale () =
  let specs =
    [ { Runner.label = "TCP-PR";
        sender = snd Variants.tcp_pr;
        count = flows_per_protocol };
      { Runner.label = "TCP-SACK";
        sender = snd Variants.tcp_sack;
        count = flows_per_protocol } ]
  in
  let result =
    match topology with
    | Fig2_fairness.Dumbbell ->
      Runner.dumbbell_fairness ?seed ?warmup ?window
        ~bottleneck_bandwidth_bps:(15e6 *. bandwidth_scale) ~specs ()
    | Fig2_fairness.Parking_lot ->
      Runner.parking_lot_fairness ?seed ?warmup ?window ~bandwidth_scale
        ~specs ()
  in
  let all = Runner.all_throughputs result in
  let pr = Runner.group result ~label:"TCP-PR" in
  let sack = Runner.group result ~label:"TCP-SACK" in
  { topology;
    bandwidth_scale;
    loss_rate_pct = 100. *. result.Runner.loss_rate;
    cov_pr = Stats.Fairness.coefficient_of_variation ~group:pr ~all;
    cov_sack = Stats.Fairness.coefficient_of_variation ~group:sack ~all;
    mean_pr = Stats.Fairness.mean_normalized ~group:pr ~all;
    mean_sack = Stats.Fairness.mean_normalized ~group:sack ~all }

let series ?seed ?warmup ?window ?flows_per_protocol
    ?(scales = [ 1.0; 0.7; 0.5; 0.35; 0.25 ]) ?(jobs = 1) topology () =
  Runner.parallel_map ~jobs
    (fun bandwidth_scale ->
      run ?seed ?warmup ?window ?flows_per_protocol topology ~bandwidth_scale
        ())
    scales

let to_table points =
  let table =
    Stats.Table.create
      ~columns:
        [ "bw scale";
          "loss %";
          "CoV (TCP-PR)";
          "CoV (TCP-SACK)";
          "mean T (PR)";
          "mean T (SACK)" ]
  in
  let add point =
    Stats.Table.add_float_row table
      (Printf.sprintf "%.2f" point.bandwidth_scale)
      [ point.loss_rate_pct;
        point.cov_pr;
        point.cov_sack;
        point.mean_pr;
        point.mean_sack ]
  in
  List.iter add points;
  table
