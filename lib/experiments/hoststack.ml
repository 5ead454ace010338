type point = {
  variant : string;
  app_rate : float;
  completion_s : float;
  zero_windows : int;
  window_updates : int;
  buf_drops : int;
  autotune_grows : int;
  retransmissions : int;
}

(* One bounded transfer over the Fig. 2 dumbbell with the host-stack
   layer on: a 16-segment receive buffer autotuned up to 24 segments, a
   paced application reader ([app_rate <= 0.] = instant), and GRO
   coalescing (1 ms / 4 segments) on the sink's ingress links. The
   application rate is the independent variable: as it drops below the
   path rate the buffer fills, the advertised window — not cwnd —
   becomes the binding constraint, and the run exercises zero-window
   persistence and reopening. *)
let run ~total_segments ~app_rate ~sender =
  let engine = Sim.Engine.create () in
  let connection =
    Scenario.connect (Scenario.hoststack engine) ~flow:0 ~at:0. ~sender
      ~config:
        (Scenario.hoststack_config
           ?app_rate:(if app_rate > 0. then Some app_rate else None)
           total_segments)
  in
  Sim.Engine.run engine ~until:600.;
  connection

let variants =
  [ Variants.tcp_pr;
    Variants.tcp_sack;
    ("NewReno", (module Tcp.Newreno : Tcp.Sender.S)) ]

let rates = [ 0.; 120.; 60.; 30.; 10. ]

let sweep ?(total_segments = 80) ?(jobs = 1) () =
  let cells =
    List.concat_map
      (fun (variant, sender) ->
        List.map (fun app_rate -> (variant, sender, app_rate)) rates)
      variants
  in
  Runner.parallel_map ~jobs
    (fun (variant, sender, app_rate) ->
      let c = run ~total_segments ~app_rate ~sender in
      { variant;
        app_rate;
        completion_s =
          (match Tcp.Connection.finished_at c with
          | Some t -> t
          | None -> nan);
        zero_windows = Tcp.Connection.receiver_zero_windows c;
        window_updates = Tcp.Connection.window_updates_sent c;
        buf_drops = Tcp.Connection.receiver_buf_drops c;
        autotune_grows =
          (match Tcp.Connection.receiver_buffer c with
          | Some buf -> Tcp.Rcv_buffer.autotune_grows buf
          | None -> 0);
        retransmissions =
          Tcp.Connection.data_packets_sent c - total_segments })
    cells

(* Completion time (s) per variant x application rate; rate 0 denotes
   an instant reader (drain keeps pace with delivery). *)
let to_table points =
  let rates = List.sort_uniq compare (List.map (fun p -> p.app_rate) points) in
  let variants =
    List.fold_left
      (fun acc p -> if List.mem p.variant acc then acc else acc @ [ p.variant ])
      [] points
  in
  let table =
    Stats.Table.create
      ~columns:
        ("variant"
        :: List.map
             (fun r ->
               if r = 0. then "app=inst" else Printf.sprintf "app=%g/s" r)
             rates)
  in
  List.iter
    (fun variant ->
      let row =
        List.map
          (fun rate ->
            match
              List.find_opt
                (fun p -> p.variant = variant && p.app_rate = rate)
                points
            with
            | Some p -> p.completion_s
            | None -> nan)
          rates
      in
      Stats.Table.add_float_row table ~decimals:2 variant row)
    variants;
  table
