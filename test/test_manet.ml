(* Tests for the MANET substrate: random-waypoint mobility, range-gated
   radio links, per-packet route recomputation, and the end-to-end
   scenario. *)

let engine_with_mobility ?(nodes = 6) ?(dt = 0.1) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 3 in
  let mobility =
    Manet.Mobility.create engine rng ~nodes ~width:100. ~height:100.
      ~speed_range:(5., 10.) ~dt ()
  in
  (engine, mobility)

let test_mobility_stays_on_plane () =
  let engine, mobility = engine_with_mobility () in
  for step = 1 to 100 do
    Sim.Engine.run engine ~until:(float_of_int step *. 0.5);
    for i = 0 to Manet.Mobility.node_count mobility - 1 do
      let x, y = Manet.Mobility.position mobility i in
      Alcotest.(check bool) "within plane" true
        (x >= 0. && x <= 100. && y >= 0. && y <= 100.)
    done
  done

let test_mobility_moves () =
  let engine, mobility = engine_with_mobility () in
  let before = Manet.Mobility.position mobility 0 in
  Sim.Engine.run engine ~until:5.;
  let after = Manet.Mobility.position mobility 0 in
  Alcotest.(check bool) "node moved" true (before <> after)

let test_mobility_speed_bound () =
  let engine, mobility = engine_with_mobility ~dt:0.1 () in
  Sim.Engine.run engine ~until:1.;
  let x0, y0 = Manet.Mobility.position mobility 0 in
  Sim.Engine.run engine ~until:1.1;
  let x1, y1 = Manet.Mobility.position mobility 0 in
  let moved = sqrt (((x1 -. x0) ** 2.) +. ((y1 -. y0) ** 2.)) in
  (* One step at <= 10 units/s over 0.1 s. *)
  Alcotest.(check bool) "bounded step" true (moved <= 10. *. 0.1 +. 1e-9)

let test_mobility_pin () =
  let engine, mobility = engine_with_mobility () in
  Manet.Mobility.pin mobility 0 (3., 4.);
  Sim.Engine.run engine ~until:10.;
  Alcotest.(check (pair (float 0.) (float 0.)))
    "pinned node stays" (3., 4.)
    (Manet.Mobility.position mobility 0)

let test_mobility_deterministic () =
  let run () =
    let engine, mobility = engine_with_mobility () in
    Sim.Engine.run engine ~until:7.;
    List.init (Manet.Mobility.node_count mobility) (Manet.Mobility.position mobility)
  in
  Alcotest.(check bool) "same seed, same trajectory" true (run () = run ())

let adhoc_fixture () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 5 in
  let adhoc =
    Manet.Adhoc.create engine rng ~nodes:6 ~width:100. ~height:100. ~range:40.
      ~speed_range:(1., 5.) ()
  in
  (engine, adhoc)

let test_adhoc_route_respects_range () =
  let _, adhoc = adhoc_fixture () in
  let mobility = Manet.Adhoc.mobility adhoc in
  (* Pin a known 3-node chain; everyone else far away. *)
  Manet.Mobility.pin mobility 0 (0., 0.);
  Manet.Mobility.pin mobility 1 (35., 0.);
  Manet.Mobility.pin mobility 2 (70., 0.);
  Manet.Mobility.pin mobility 3 (0., 1000.);
  Manet.Mobility.pin mobility 4 (300., 1000.);
  Manet.Mobility.pin mobility 5 (600., 1000.);
  Alcotest.(check (option (array int)))
    "two-hop relay"
    (Some [| 1; 2 |])
    (Manet.Adhoc.current_route adhoc ~src:0 ~dst:2);
  Alcotest.(check (option (array int)))
    "partitioned" None
    (Manet.Adhoc.current_route adhoc ~src:0 ~dst:5)

let test_adhoc_route_fn_falls_back () =
  let _, adhoc = adhoc_fixture () in
  let mobility = Manet.Adhoc.mobility adhoc in
  Manet.Mobility.pin mobility 0 (0., 0.);
  Manet.Mobility.pin mobility 1 (35., 0.);
  Manet.Mobility.pin mobility 2 (70., 0.);
  Manet.Mobility.pin mobility 3 (0., 1000.);
  Manet.Mobility.pin mobility 4 (300., 1000.);
  Manet.Mobility.pin mobility 5 (600., 1000.);
  let route = Manet.Adhoc.route_fn adhoc ~src:0 ~dst:2 in
  Alcotest.(check (array int)) "live route" [| 1; 2 |] (route ());
  (* Break the chain: the last known route is reused. *)
  Manet.Mobility.pin mobility 1 (35., 1000.);
  Alcotest.(check (array int)) "stale route reused" [| 1; 2 |] (route ())

let test_adhoc_out_of_range_links_drop () =
  let engine, adhoc = adhoc_fixture () in
  let mobility = Manet.Adhoc.mobility adhoc in
  Manet.Mobility.pin mobility 0 (0., 0.);
  Manet.Mobility.pin mobility 1 (1000., 1000.);
  let received = ref 0 in
  Net.Node.attach (Manet.Adhoc.node adhoc 1) ~flow:0 (fun _ -> incr received);
  let network = Manet.Adhoc.network adhoc in
  let packet =
    Net.Packet.create ~uid:0 ~flow:0
      ~src:(Net.Node.id (Manet.Adhoc.node adhoc 0))
      ~dst:(Net.Node.id (Manet.Adhoc.node adhoc 1))
      ~size:500
      ~route:[| Net.Node.id (Manet.Adhoc.node adhoc 1) |]
      ~born:0. (Net.Packet.Raw 0)
  in
  Net.Network.originate network ~from:(Manet.Adhoc.node adhoc 0) packet;
  Sim.Engine.run engine ~until:1.;
  Alcotest.(check int) "lost beyond range" 0 !received;
  (* Bring them together: delivery works. *)
  Manet.Mobility.pin mobility 1 (10., 0.);
  let packet2 =
    Net.Packet.create ~uid:1 ~flow:0
      ~src:(Net.Node.id (Manet.Adhoc.node adhoc 0))
      ~dst:(Net.Node.id (Manet.Adhoc.node adhoc 1))
      ~size:500
      ~route:[| Net.Node.id (Manet.Adhoc.node adhoc 1) |]
      ~born:0. (Net.Packet.Raw 0)
  in
  Net.Network.originate network ~from:(Manet.Adhoc.node adhoc 0) packet2;
  Sim.Engine.run engine ~until:2.;
  Alcotest.(check int) "delivered in range" 1 !received

let test_manet_scenario_moves_data () =
  List.iter
    (fun (label, sender) ->
      let r =
        Experiments.Manet_experiment.run ~seed:2 ~duration:20. ~sender ()
      in
      Alcotest.(check bool)
        (label ^ " makes progress")
        true
        (r.Experiments.Runner.mbps > 0.5))
    [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]

let test_manet_pr_never_spurious () =
  let r =
    Experiments.Manet_experiment.run ~seed:2 ~duration:20.
      ~sender:(module Core.Tcp_pr) ()
  in
  Alcotest.(check int) "no spurious duplicates" 0
    r.Experiments.Runner.spurious_duplicates

let () =
  Alcotest.run "manet"
    [ ( "mobility",
        [ Alcotest.test_case "stays on plane" `Quick test_mobility_stays_on_plane;
          Alcotest.test_case "moves" `Quick test_mobility_moves;
          Alcotest.test_case "speed bound" `Quick test_mobility_speed_bound;
          Alcotest.test_case "pin" `Quick test_mobility_pin;
          Alcotest.test_case "deterministic" `Quick test_mobility_deterministic
        ] );
      ( "adhoc",
        [ Alcotest.test_case "route respects range" `Quick
            test_adhoc_route_respects_range;
          Alcotest.test_case "route_fn falls back" `Quick
            test_adhoc_route_fn_falls_back;
          Alcotest.test_case "out-of-range links drop" `Quick
            test_adhoc_out_of_range_links_drop ] );
      ( "scenario",
        [ Alcotest.test_case "moves data" `Slow test_manet_scenario_moves_data;
          Alcotest.test_case "tcp-pr never spurious" `Slow
            test_manet_pr_never_spurious ] ) ]
