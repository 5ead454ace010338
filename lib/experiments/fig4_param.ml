type point = {
  topology : Fig2_fairness.topology;
  alpha : float;
  beta : float;
  mean_sack : float;
  mean_pr : float;
}

let run ?seed ?warmup ?window ?(flows_per_protocol = 8) topology ~alpha ~beta
    () =
  let config =
    { Tcp.Config.default with Tcp.Config.pr_alpha = alpha; pr_beta = beta }
  in
  let specs = Fig2_fairness.fairness_specs ~flows_per_protocol in
  let result =
    match topology with
    | Fig2_fairness.Dumbbell ->
      Runner.dumbbell_fairness ?seed ~config ?warmup ?window ~specs ()
    | Fig2_fairness.Parking_lot ->
      Runner.parking_lot_fairness ?seed ~config ?warmup ?window ~specs ()
  in
  let all = Runner.all_throughputs result in
  { topology;
    alpha;
    beta;
    mean_sack =
      Stats.Fairness.mean_normalized
        ~group:(Runner.group result ~label:(fst Variants.tcp_sack))
        ~all;
    mean_pr =
      Stats.Fairness.mean_normalized
        ~group:(Runner.group result ~label:(fst Variants.tcp_pr))
        ~all }

let grid ?seed ?warmup ?window ?flows_per_protocol
    ?(alphas = [ 0.5; 0.9; 0.995 ]) ?(betas = [ 1.; 2.; 3.; 5.; 10. ])
    ?(jobs = 1) topology () =
  let cells =
    List.concat_map
      (fun alpha -> List.map (fun beta -> (alpha, beta)) betas)
      alphas
  in
  Runner.parallel_map ~jobs
    (fun (alpha, beta) ->
      run ?seed ?warmup ?window ?flows_per_protocol topology ~alpha ~beta ())
    cells

let to_table points =
  let table =
    Stats.Table.create
      ~columns:[ "alpha"; "beta"; "mean T (TCP-SACK)"; "mean T (TCP-PR)" ]
  in
  let add point =
    Stats.Table.add_row table
      [ Printf.sprintf "%.4g" point.alpha;
        Printf.sprintf "%.4g" point.beta;
        Printf.sprintf "%.3f" point.mean_sack;
        Printf.sprintf "%.3f" point.mean_pr ]
  in
  List.iter add points;
  table
