type point = {
  variant : string;
  jitter_ms : float;
  mbps : float;
  spurious_duplicates : int;
}

let run ~seed ~duration ~jitter_s ~sender =
  let engine = Sim.Engine.create () in
  let connection =
    Scenario.connect
      (Scenario.jitter_chain ~jitter:jitter_s engine (Sim.Rng.create seed))
      ~flow:0 ~at:0. ~sender ~config:Tcp.Config.default
  in
  Sim.Engine.run engine ~until:duration;
  ( Stats.Throughput.mbps
      ~bytes:(Tcp.Connection.received_bytes connection)
      ~seconds:duration,
    Tcp.Connection.receiver_duplicates connection )

let default_variants =
  [ Variants.tcp_pr; Variants.tcp_sack; Variants.td_fr; Variants.rack ]

let sweep ?(seed = 1) ?(duration = 60.) ?(jitters_ms = [ 0.; 5.; 20.; 50. ])
    ?(variants = default_variants) ?(jobs = 1) () =
  let cells =
    List.concat_map
      (fun (variant, sender) ->
        List.map (fun jitter_ms -> (variant, sender, jitter_ms)) jitters_ms)
      variants
  in
  Runner.parallel_map ~jobs
    (fun (variant, sender, jitter_ms) ->
      let mbps, spurious_duplicates =
        run ~seed ~duration ~jitter_s:(jitter_ms /. 1000.) ~sender
      in
      { variant; jitter_ms; mbps; spurious_duplicates })
    cells

let to_table points =
  List.map (fun p -> (p.variant, p.jitter_ms, p.mbps)) points
  |> Stats.Table.pivot ~column:(Printf.sprintf "jitter=%gms")
