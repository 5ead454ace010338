(* Allocation regression tests: GC-delta bytes per simulated packet on
   the two gate scenarios (dumbbell contention and the epsilon-routed
   multipath lattice), with timers on the timing wheel.

   These replicate the bench/alloc_suite.ml scenarios at the same scale
   (they run in milliseconds) but live in the test suite so `dune
   runtest` catches an allocation regression without anyone running
   `make bench-gate`: a box back on the heap-sift or RNG path, a
   closure per packet, a [Some] on the receiver path all cost hundreds
   of bytes per packet and blow the budget immediately.

   The budgets are the PR8 acceptance ceilings (the unboxed ns time
   core plus reusable ACK action buffers brought ~227 B/packet down to
   ~76-129), not the currently-measured values — headroom for compiler
   version drift, none for a real per-packet allocation. *)

let dumbbell_budget = 180.

let lattice_budget = 180.

let bounded_config segments =
  { Tcp.Config.default with
    Tcp.Config.total_segments = Some segments;
    min_rto = 0.2;
    initial_rto = 1.;
    max_rto = 16. }

let count_packets network =
  List.fold_left
    (fun acc link ->
      acc + Net.Link.transmitted_packets link + Net.Link.queue_drops link)
    (Net.Network.total_injected_losses network)
    (Net.Network.links network)

(* [bytes_per_packet network ~measured] warms the minor heap out of the
   way, runs the measured phase, flushes, and returns the GC-delta
   quotient (see bench/alloc_suite.ml for why the flush is needed on
   OCaml 5). *)
let bytes_per_packet network ~measured =
  Gc.full_major ();
  let packets0 = count_packets network in
  let bytes0 = Gc.allocated_bytes () in
  measured ();
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. bytes0 in
  let packets = count_packets network - packets0 in
  Alcotest.(check bool) "measured phase moved packets" true (packets > 1000);
  allocated /. float_of_int packets

(* Dumbbell: a TCP-PR + TCP-SACK pair through the 1.5 Mb/s bottleneck,
   warmup pair run to completion first (flows 0/1), measured pair
   (flows 2/3) on the already-warm network. *)
let dumbbell_bytes () =
  let engine = Sim.Engine.create () in
  let topo =
    Topo.Dumbbell.create engine ~bottleneck_bandwidth_bps:1.5e6
      ~queue_capacity:10 ()
  in
  let network = topo.Topo.Dumbbell.network in
  let config = bounded_config 600 in
  let start ~at flow sender =
    let c =
      Tcp.Connection.create network ~flow ~src:topo.Topo.Dumbbell.sources.(0)
        ~dst:topo.Topo.Dumbbell.sinks.(0) ~sender ~config
        ~route_data:(fun () -> Topo.Dumbbell.route_forward topo ~pair:0)
        ~route_ack:(fun () -> Topo.Dumbbell.route_reverse topo ~pair:0)
        ()
    in
    Tcp.Connection.start c ~at
  in
  start ~at:0. 0 (snd Experiments.Variants.tcp_pr);
  start ~at:0.05 1 (snd Experiments.Variants.tcp_sack);
  Sim.Engine.run engine ~until:120.;
  start ~at:120. 2 (snd Experiments.Variants.tcp_pr);
  start ~at:120.05 3 (snd Experiments.Variants.tcp_sack);
  bytes_per_packet network ~measured:(fun () ->
      Sim.Engine.run engine ~until:240.)

(* Lattice: one TCP-PR flow, epsilon = 0 (uniform path choice, maximal
   persistent reordering), warmup flow first. *)
let lattice_bytes () =
  let engine = Sim.Engine.create () in
  let topo = Topo.Multipath_lattice.create engine ~path_hops:[ 2; 3; 4 ] () in
  let network = topo.Topo.Multipath_lattice.network in
  let rng = Sim.Rng.create 42 in
  let sampler label =
    Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng label)
      ~epsilon:0. topo
  in
  let start ~at flow =
    let fwd = sampler (Printf.sprintf "fwd-%d" flow)
    and rev = sampler (Printf.sprintf "rev-%d" flow) in
    let connection =
      Tcp.Connection.create network ~flow
        ~src:topo.Topo.Multipath_lattice.source
        ~dst:topo.Topo.Multipath_lattice.destination
        ~sender:(snd Experiments.Variants.tcp_pr)
        ~config:(bounded_config 600)
        ~route_data:(fun () ->
          Multipath.Epsilon_routing.route fwd
            topo.Topo.Multipath_lattice.forward_routes)
        ~route_ack:(fun () ->
          Multipath.Epsilon_routing.route rev
            topo.Topo.Multipath_lattice.reverse_routes)
        ()
    in
    Tcp.Connection.start connection ~at
  in
  start ~at:0. 0;
  Sim.Engine.run engine ~until:120.;
  start ~at:120. 1;
  bytes_per_packet network ~measured:(fun () ->
      Sim.Engine.run engine ~until:240.)

(* Analytics at data-plane cost (PR10): the lattice scenario with the
   full reordering observability enabled — the always-on streaming
   RFC 4737 instance in the receiver plus the sketch detector tapping
   every data arrival. Same budget as the bare lattice: the analytics
   must ride the hot path without any per-packet allocation. *)
let analytics_budget = 180.

let analytics_bytes () =
  let engine = Sim.Engine.create () in
  let topo = Topo.Multipath_lattice.create engine ~path_hops:[ 2; 3; 4 ] () in
  let network = topo.Topo.Multipath_lattice.network in
  let rng = Sim.Rng.create 42 in
  let sketch = Obs.Reorder_sketch.create () in
  let sampler label =
    Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng label)
      ~epsilon:0. topo
  in
  let start ~at flow =
    let fwd = sampler (Printf.sprintf "fwd-%d" flow)
    and rev = sampler (Printf.sprintf "rev-%d" flow) in
    let connection =
      Tcp.Connection.create ~sketch network ~flow
        ~src:topo.Topo.Multipath_lattice.source
        ~dst:topo.Topo.Multipath_lattice.destination
        ~sender:(snd Experiments.Variants.tcp_pr)
        ~config:(bounded_config 600)
        ~route_data:(fun () ->
          Multipath.Epsilon_routing.route fwd
            topo.Topo.Multipath_lattice.forward_routes)
        ~route_ack:(fun () ->
          Multipath.Epsilon_routing.route rev
            topo.Topo.Multipath_lattice.reverse_routes)
        ()
    in
    Tcp.Connection.start connection ~at
  in
  start ~at:0. 0;
  Sim.Engine.run engine ~until:120.;
  start ~at:120. 1;
  let bytes =
    bytes_per_packet network ~measured:(fun () ->
        Sim.Engine.run engine ~until:240.)
  in
  (* The analytics must actually have seen the reordering it was
     billed for. *)
  Alcotest.(check bool) "sketch saw the measured flows" true
    (Obs.Reorder_sketch.detected sketch > 100);
  bytes

(* Host-stack layer at full tilt (PR9): finite autotuned receive
   buffer, paced application reader, GRO coalescing on the sink's
   ingress. The enabled path adds per-arrival admission accounting
   (immediate ints), per-burst coalesced delivery (reused array), and
   periodic window-reopen acknowledgements — the ceiling gives the
   reopen/drain records a little room over the idealised dumbbell but
   still catches any per-packet box creeping into admission or burst
   delivery. *)
let hoststack_budget = 200.

let hoststack_bytes () =
  let engine = Sim.Engine.create () in
  let topo =
    Topo.Dumbbell.create engine ~bottleneck_bandwidth_bps:1.5e6
      ~queue_capacity:10 ()
  in
  let network = topo.Topo.Dumbbell.network in
  let sink = Net.Node.id topo.Topo.Dumbbell.sinks.(0) in
  List.iter
    (fun link ->
      if Net.Link.dst link = sink then
        Net.Link.set_coalescing link ~timer_s:0.001 ~max_burst:4)
    (Net.Network.links network);
  let config =
    { (bounded_config 600) with
      Tcp.Config.rcv_buf_segments = Some 32;
      rcv_buf_max_segments = 64;
      rcv_autotune = true;
      rcv_app_rate = Some 100. }
  in
  let start ~at flow sender =
    let c =
      Tcp.Connection.create network ~flow ~src:topo.Topo.Dumbbell.sources.(0)
        ~dst:topo.Topo.Dumbbell.sinks.(0) ~sender ~config
        ~route_data:(fun () -> Topo.Dumbbell.route_forward topo ~pair:0)
        ~route_ack:(fun () -> Topo.Dumbbell.route_reverse topo ~pair:0)
        ()
    in
    Tcp.Connection.start c ~at
  in
  start ~at:0. 0 (snd Experiments.Variants.tcp_pr);
  start ~at:0.05 1 (snd Experiments.Variants.tcp_sack);
  Sim.Engine.run engine ~until:120.;
  start ~at:120. 2 (snd Experiments.Variants.tcp_pr);
  start ~at:120.05 3 (snd Experiments.Variants.tcp_sack);
  bytes_per_packet network ~measured:(fun () ->
      Sim.Engine.run engine ~until:240.)

let check_budget name budget bytes =
  if bytes > budget then
    Alcotest.failf "%s: %.1f B/packet exceeds the %.0f B/packet budget" name
      bytes budget

let test_dumbbell_wheel () =
  check_budget "dumbbell" dumbbell_budget (dumbbell_bytes ())

let test_lattice_wheel () =
  check_budget "lattice" lattice_budget (lattice_bytes ())

let test_analytics_wheel () =
  check_budget "analytics" analytics_budget (analytics_bytes ())

let test_hoststack_wheel () =
  check_budget "hoststack" hoststack_budget (hoststack_bytes ())

(* --- bytes per ACK ---------------------------------------------------

   Isolated [on_ack] churn, the same harness as bench/alloc_suite.ml
   [measure_acks] (in-order ACK stream into the packed sender, one
   reusable buffer cleared per event) at the same 50k churn, so the
   ceilings line up with the BENCH_PR8 record. The ceilings are the
   PR8 acceptance numbers — half the frozen pre-PR per-variant
   baseline — not the measured values (~205-274 B/ack): the ISSUE
   committed to a >= 50% drop, so regressing past these loses the
   acceptance property itself. *)

let ack_churn = 50_000

let bytes_per_ack (module M : Tcp.Sender.S) =
  let config =
    { Tcp.Config.default with
      Tcp.Config.initial_cwnd = 8.;
      total_segments = None }
  in
  let sender = Tcp.Sender.pack (module M) config in
  let buf = Tcp.Action_buffer.create () in
  Tcp.Sender.start sender ~now:0. buf;
  let feed i =
    Tcp.Action_buffer.clear buf;
    let ack =
      { Tcp.Types.next = i + 1;
        sacks = [];
        dsack = None;
        for_seq = i;
        for_retx = false;
        serial = i;
        rwnd = Tcp.Types.rwnd_unbounded }
    in
    Tcp.Sender.on_ack sender ~now:(1e-4 *. float_of_int (i + 1)) ack buf
  in
  for i = 0 to 999 do
    feed i
  done;
  Gc.full_major ();
  let bytes0 = Gc.allocated_bytes () in
  for i = 1000 to 1000 + ack_churn - 1 do
    feed i
  done;
  Gc.minor ();
  (Gc.allocated_bytes () -. bytes0) /. float_of_int ack_churn

(* Half the frozen pre-PR baselines (564.7 generic, 577.8 TCP-PR,
   3936.1 RACK — see bench/main.ml [baseline_pre_pr_bytes_per_ack]). *)
let test_ack_budget_sack () =
  let b = bytes_per_ack (snd Experiments.Variants.tcp_sack) in
  if b > 282.4 then
    Alcotest.failf "TCP-SACK: %.1f B/ack exceeds the 282.4 B/ack ceiling" b

let test_ack_budget_tcp_pr () =
  let b = bytes_per_ack (snd Experiments.Variants.tcp_pr) in
  if b > 288.9 then
    Alcotest.failf "TCP-PR: %.1f B/ack exceeds the 288.9 B/ack ceiling" b

(* --- RTO fire/re-arm cycle -------------------------------------------

   A full retransmission-timer cycle — wheel pop, handler, back-off,
   ns re-arm — is the loop a stalled connection spins in; it must not
   allocate a single minor-heap word. [Rto.current_ns] keeps the float
   inside the call, [arm_timer_ns] keeps the deadline an int, and the
   timer cell is reused, so a non-zero delta here means a box crept
   back onto the path. *)
let test_rto_cycle_zero_alloc () =
  let engine = Sim.Engine.create () in
  let config =
    { Tcp.Config.default with
      Tcp.Config.initial_rto = 0.4;
      min_rto = 0.2;
      max_rto = 16. }
  in
  let rto = Tcp.Rto.create config in
  let fires = ref 0 in
  let cell = ref None in
  let handler () =
    incr fires;
    Tcp.Rto.backoff rto;
    if !fires mod 8 = 0 then Tcp.Rto.reset_backoff rto;
    match !cell with
    | Some tm -> Sim.Engine.arm_timer_ns engine tm ~delay:(Tcp.Rto.current_ns rto)
    | None -> ()
  in
  let tm = Sim.Engine.make_timer engine (Sim.Engine.Closure handler) in
  cell := Some tm;
  Sim.Engine.arm_timer_ns engine tm ~delay:(Tcp.Rto.current_ns rto);
  (* Warm up: first fires grow wheel slots and promote the cell. *)
  Sim.Engine.run engine ~until:200.;
  Gc.full_major ();
  let fires0 = !fires in
  let words0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:5000.;
  let delta = Gc.minor_words () -. words0 in
  Alcotest.(check bool)
    "measured phase fired the timer" true (!fires - fires0 > 50);
  if delta > 0. then
    Alcotest.failf "RTO fire/re-arm cycle allocated %.0f minor words over %d fires"
      delta (!fires - fires0)

let () =
  Alcotest.run "alloc"
    [ ( "bytes-per-packet",
        [ Alcotest.test_case "dumbbell, wheel" `Quick test_dumbbell_wheel;
          Alcotest.test_case "lattice, wheel" `Quick test_lattice_wheel;
          Alcotest.test_case "analytics, wheel" `Quick test_analytics_wheel;
          Alcotest.test_case "hoststack, wheel" `Quick test_hoststack_wheel ] );
      ( "bytes-per-ack",
        [ Alcotest.test_case "TCP-SACK ceiling" `Quick test_ack_budget_sack;
          Alcotest.test_case "TCP-PR ceiling" `Quick test_ack_budget_tcp_pr ] );
      ( "rto-cycle",
        [ Alcotest.test_case "zero minor allocation" `Quick
            test_rto_cycle_zero_alloc ] ) ]
