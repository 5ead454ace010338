type point = {
  variant : string;
  epsilon : float;
  delay_s : float;
  mbps : float;
}

let grid ?seed ?(warmup = 0.) ?(duration = 60.) ?(epsilons = [ 0.; 1.; 4.; 10.; 500. ])
    ?(delays = [ 0.010; 0.060 ]) ?(variants = Variants.fig6) ?(jobs = 1) () =
  let cells =
    List.concat_map
      (fun delay_s ->
        List.concat_map
          (fun (variant, sender) ->
            List.map (fun epsilon -> (delay_s, variant, sender, epsilon))
              epsilons)
          variants)
      delays
  in
  Runner.parallel_map ~jobs
    (fun (delay_s, variant, sender, epsilon) ->
      let mbps =
        Runner.multipath_throughput ?seed ~delay_s ~warmup ~duration ~epsilon
          ~sender ()
      in
      { variant; epsilon; delay_s; mbps })
    cells

let to_table ~delay_s points =
  List.filter_map
    (fun p ->
      if p.delay_s = delay_s then Some (p.variant, p.epsilon, p.mbps) else None)
    points
  |> Stats.Table.pivot ~column:(Printf.sprintf "eps=%g")
