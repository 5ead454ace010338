let nodes = 12

let speed = 8.

let run ?(seed = 1) ?(duration = 60.) ~sender () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let width = 300. and height = 300. and range = 120. in
  (* 5 Mb/s radios with 15 ms hops: enough data in flight that a route
     change reorders a window's worth of packets. *)
  let adhoc =
    Manet.Adhoc.create engine rng ~nodes ~width ~height ~range
      ~speed_range:(1., speed) ~bandwidth_bps:5e6 ~delay_s:0.015 ()
  in
  (* Endpoints pinned at opposite sides, 280 units apart: always at
     least two radio hops, relayed by the movers in between. *)
  let src = 0 and dst = 1 in
  Manet.Mobility.pin (Manet.Adhoc.mobility adhoc) src (10., height /. 2.);
  Manet.Mobility.pin (Manet.Adhoc.mobility adhoc) dst (width -. 10., height /. 2.);
  let connection =
    Tcp.Connection.create (Manet.Adhoc.network adhoc) ~flow:0
      ~src:(Manet.Adhoc.node adhoc src) ~dst:(Manet.Adhoc.node adhoc dst)
      ~sender ~config:Tcp.Config.default
      ~route_data:(Manet.Adhoc.route_fn adhoc ~src ~dst)
      ~route_ack:(Manet.Adhoc.route_fn adhoc ~src:dst ~dst:src)
      ()
  in
  Tcp.Connection.start connection ~at:0.;
  Sim.Engine.run engine ~until:duration;
  Runner.flow_result connection ~duration

let variants =
  [ Variants.tcp_pr;
    Variants.tcp_sack;
    ("TCP-DOOR", (module Tcp.Tcp_door : Tcp.Sender.S));
    ("RACK", (module Tcp.Rack : Tcp.Sender.S)) ]

let compare ?seed ?duration ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun (label, sender) -> (label, run ?seed ?duration ~sender ()))
    variants
