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
  [ Variants.tcp_pr;
    Variants.tcp_sack;
    ("TD-FR", (module Tcp.Td_fr : Tcp.Sender.S));
    ("RACK", (module Tcp.Rack : Tcp.Sender.S)) ]

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
  let jitters =
    List.sort_uniq compare (List.map (fun p -> p.jitter_ms) points)
  in
  let variants =
    List.fold_left
      (fun acc p -> if List.mem p.variant acc then acc else acc @ [ p.variant ])
      [] points
  in
  let table =
    Stats.Table.create
      ~columns:
        ("variant"
        :: List.map (fun j -> Printf.sprintf "jitter=%gms" j) jitters)
  in
  List.iter
    (fun variant ->
      let row =
        List.map
          (fun jitter_ms ->
            match
              List.find_opt
                (fun p -> p.variant = variant && p.jitter_ms = jitter_ms)
                points
            with
            | Some p -> p.mbps
            | None -> nan)
          jitters
      in
      Stats.Table.add_float_row table ~decimals:2 variant row)
    variants;
  table
