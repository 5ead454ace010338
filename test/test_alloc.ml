(* Allocation regression tests: GC-delta bytes per simulated packet on
   every bench/alloc_suite.ml scenario and bytes per ACK for every
   sender variant, run through that same harness so `dune runtest`
   catches an allocation regression without anyone running `make
   bench-gate`: a box back on the heap-sift or RNG path, a closure per
   packet, a [Some] on the receiver path all cost hundreds of bytes per
   packet and blow the ceiling immediately.

   The ceilings are the acceptance numbers of the unboxed ns time core
   and the reusable ACK action buffers (which brought ~227 B/packet
   down to ~76-129), not the currently-measured values — headroom for compiler
   version drift, none for a real per-packet allocation. The bench gate
   holds the same measurements to 16 B over bench/baseline.json. *)

(* The host-stack layer adds per-arrival admission accounting
   (immediate ints), per-burst coalesced delivery (reused array), and
   periodic window-reopen acknowledgements: its ceiling gives the
   reopen/drain records a little room over the idealised scenarios but
   still catches any per-packet box creeping into admission or burst
   delivery. *)
let packet_ceiling = function "hoststack" -> 200. | _ -> 180.

let test_packets (name, scenario) () =
  let m = Alloc_suite.measure name scenario in
  Alcotest.(check bool)
    "measured phase moved packets" true (m.Alloc_suite.packets > 1000);
  let ceiling = packet_ceiling name in
  if m.Alloc_suite.bytes_per_packet > ceiling then
    Alcotest.failf "%s: %.1f B/packet exceeds the %.0f B/packet ceiling" name
      m.Alloc_suite.bytes_per_packet ceiling

(* --- bytes per ACK ---------------------------------------------------

   Isolated [on_ack] churn ([Alloc_suite.measure_acks]: an in-order ACK
   stream into the packed sender, one reusable buffer cleared per
   event). The ceilings are that same work's acceptance numbers — half
   the per-variant numbers before it in EXPERIMENTS.md (564.7 generic,
   577.8 TCP-PR, 3936.1 RACK) — not the measured values (151-282
   B/ack): it committed to a >= 50% drop, so regressing past these
   loses the acceptance property itself. *)
let ack_ceiling = function "TCP-PR" -> 288.9 | "RACK" -> 1968.0 | _ -> 282.4

let test_acks variant () =
  let m = Alloc_suite.measure_acks variant in
  let ceiling = ack_ceiling m.Alloc_suite.variant in
  if m.Alloc_suite.bytes_per_ack > ceiling then
    Alcotest.failf "%s: %.1f B/ack exceeds the %.1f B/ack ceiling"
      m.Alloc_suite.variant m.Alloc_suite.bytes_per_ack ceiling

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
  let tm = Sim.Engine.make_timer engine handler in
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
        List.map
          (fun ((name, _) as scenario) ->
            Alcotest.test_case name `Quick (test_packets scenario))
          Alloc_suite.scenarios );
      ( "bytes-per-ack",
        List.map
          (fun ((name, _) as variant) ->
            Alcotest.test_case name `Quick (test_acks variant))
          Experiments.Variants.all );
      ( "rto-cycle",
        [ Alcotest.test_case "zero minor allocation" `Quick
            test_rto_cycle_zero_alloc ] ) ]
