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
  let points = List.filter (fun p -> p.delay_s = delay_s) points in
  let epsilons =
    List.sort_uniq compare (List.map (fun p -> p.epsilon) points)
  in
  let variants =
    (* Preserve first-appearance order. *)
    List.fold_left
      (fun acc p -> if List.mem p.variant acc then acc else acc @ [ p.variant ])
      [] points
  in
  let table =
    Stats.Table.create
      ~columns:
        ("variant"
        :: List.map (fun e -> Printf.sprintf "eps=%g" e) epsilons)
  in
  let add variant =
    let row =
      List.map
        (fun epsilon ->
          match
            List.find_opt
              (fun p -> p.variant = variant && p.epsilon = epsilon)
              points
          with
          | Some p -> p.mbps
          | None -> nan)
        epsilons
    in
    Stats.Table.add_float_row table ~decimals:2 variant row
  in
  List.iter add variants;
  table
