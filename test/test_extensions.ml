(* Tests for features beyond the paper's core comparison: delayed ACKs,
   the RED queue discipline, the Eifel algorithm and RACK-style
   time-based loss detection. *)


(* The handlers now write into an {!Tcp.Action_buffer.t} instead of
   returning a list; shadow them with list-returning adapters so the
   assertions below keep their original shape. *)
module Tcp = struct
  include Tcp

  module Sack_core = struct
    include Sack_core

    let start t ~now = Action_buffer.collect (Sack_core.start t ~now)

    let on_ack t ~now ack = Action_buffer.collect (Sack_core.on_ack t ~now ack)

    let on_timer t ~now ~key =
      Action_buffer.collect (Sack_core.on_timer t ~now ~key)
  end

  module Newreno_core = struct
    include Newreno_core

    let start t ~now = Action_buffer.collect (Newreno_core.start t ~now)

    let on_ack t ~now ack =
      Action_buffer.collect (Newreno_core.on_ack t ~now ack)
  end
end

let sack_sender = snd Experiments.Variants.tcp_sack

let check_float = Alcotest.(check (float 1e-9))

let retransmissions actions =
  List.filter_map
    (function
      | Tcp.Action.Send { seq; retx = true } -> Some seq | _ -> None)
    actions

let ack ?(sacks = []) ?dsack ?(for_retx = false) ~next ~for_seq () =
  let block (first, last) = { Tcp.Types.first; last } in
  { Tcp.Types.next;
    sacks = List.map block sacks;
    dsack = Option.map block dsack;
    for_seq;
    for_retx;
    serial = 0;
    rwnd = Tcp.Types.rwnd_unbounded }

(* ------------------------------------------------------------------ *)
(* Delayed ACKs                                                        *)
(* ------------------------------------------------------------------ *)

let delack_config = { Tcp.Config.default with Tcp.Config.delayed_ack = true }

let test_delack_defers_first_segment () =
  let r = Tcp.Receiver.create delack_config in
  match Tcp.Receiver.receive r ~seq:0 () with
  | Tcp.Receiver.Defer ack -> Alcotest.(check int) "covers it" 1 ack.Tcp.Types.next
  | Tcp.Receiver.Ack_now _ | Tcp.Receiver.Drop _ ->
    Alcotest.fail "expected deferral"

let test_delack_second_segment_acks () =
  let r = Tcp.Receiver.create delack_config in
  ignore (Tcp.Receiver.receive r ~seq:0 ());
  match Tcp.Receiver.receive r ~seq:1 () with
  | Tcp.Receiver.Ack_now ack ->
    Alcotest.(check int) "cumulative over both" 2 ack.Tcp.Types.next
  | Tcp.Receiver.Defer _ | Tcp.Receiver.Drop _ ->
    Alcotest.fail "second segment must ack now"

let test_delack_out_of_order_immediate () =
  let r = Tcp.Receiver.create delack_config in
  ignore (Tcp.Receiver.receive r ~seq:0 ());
  ignore (Tcp.Receiver.receive r ~seq:1 ());
  match Tcp.Receiver.receive r ~seq:3 () with
  | Tcp.Receiver.Ack_now ack ->
    Alcotest.(check bool) "carries sack" true (ack.Tcp.Types.sacks <> [])
  | Tcp.Receiver.Defer _ | Tcp.Receiver.Drop _ ->
    Alcotest.fail "out of order must ack now"

let test_delack_duplicate_immediate () =
  let r = Tcp.Receiver.create delack_config in
  ignore (Tcp.Receiver.receive r ~seq:0 ());
  ignore (Tcp.Receiver.receive r ~seq:1 ());
  match Tcp.Receiver.receive r ~seq:0 () with
  | Tcp.Receiver.Ack_now ack ->
    Alcotest.(check bool) "carries dsack" true (ack.Tcp.Types.dsack <> None)
  | Tcp.Receiver.Defer _ | Tcp.Receiver.Drop _ ->
    Alcotest.fail "duplicate must ack now"

let test_delack_disabled_always_immediate () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  for seq = 0 to 5 do
    match Tcp.Receiver.receive r ~seq () with
    | Tcp.Receiver.Ack_now _ -> ()
    | Tcp.Receiver.Defer _ | Tcp.Receiver.Drop _ ->
      Alcotest.fail "deferral with delack off"
  done

(* End to end: with delayed ACKs the receiver sends roughly half the
   ACKs, and the transfer still completes. *)
let test_delack_end_to_end () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  ignore
    (Net.Network.add_duplex network ~src:a ~dst:b ~bandwidth_bps:10e6
       ~delay_s:0.01 ~capacity:50 ());
  let config =
    { delack_config with Tcp.Config.total_segments = Some 200 }
  in
  let c =
    Tcp.Connection.create network ~flow:0 ~src:a ~dst:b
      ~sender:sack_sender ~config
      ~route_data:(fun () -> [| Net.Node.id b |])
      ~route_ack:(fun () -> [| Net.Node.id a |])
      ()
  in
  Tcp.Connection.start c ~at:0.;
  Sim.Engine.run engine ~until:60.;
  Alcotest.(check bool) "finished" true (Tcp.Connection.finished c);
  Alcotest.(check int) "all delivered" 200 (Tcp.Connection.received_segments c);
  (* ACK economy: the reverse link carried noticeably fewer than one ACK
     per segment. *)
  match Net.Network.link_between network ~src:(Net.Node.id b) ~dst:(Net.Node.id a) with
  | Some reverse ->
    let acks = Net.Link.transmitted_packets reverse in
    Alcotest.(check bool)
      (Printf.sprintf "ack economy (%d acks for 200 segments)" acks)
      true
      (acks < 160)
  | None -> Alcotest.fail "reverse link missing"

let test_delack_timer_flushes () =
  (* One lone segment: its ACK must still go out after the timeout. *)
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  ignore
    (Net.Network.add_duplex network ~src:a ~dst:b ~bandwidth_bps:10e6
       ~delay_s:0.01 ~capacity:50 ());
  let config = { delack_config with Tcp.Config.total_segments = Some 1 } in
  let c =
    Tcp.Connection.create network ~flow:0 ~src:a ~dst:b
      ~sender:sack_sender ~config
      ~route_data:(fun () -> [| Net.Node.id b |])
      ~route_ack:(fun () -> [| Net.Node.id a |])
      ()
  in
  Tcp.Connection.start c ~at:0.;
  Sim.Engine.run engine ~until:1.;
  Alcotest.(check bool) "single-segment transfer finished" true
    (Tcp.Connection.finished c);
  (* The finish time reflects the delayed-ACK timeout (~200 ms), not a
     retransmission timeout (>= 1 s). *)
  match Tcp.Connection.finished_at c with
  | Some t -> Alcotest.(check bool) "finished after delack timeout" true (t > 0.2 && t < 0.5)
  | None -> Alcotest.fail "no finish time"

(* ------------------------------------------------------------------ *)
(* RED                                                                 *)
(* ------------------------------------------------------------------ *)

let mk_packet uid =
  Net.Packet.create ~uid ~flow:0 ~src:0 ~dst:1 ~size:1000 ~route:[| 1 |] ~born:0.
    (Net.Packet.Raw 0)

let test_red_accepts_below_min_threshold () =
  let red =
    Net.Red.create (Sim.Rng.create 1) ~min_threshold:5 ~max_threshold:15
      ~capacity:20 ()
  in
  for i = 1 to 4 do
    Alcotest.(check bool) "accepted" true (Net.Red.offer red (mk_packet i))
  done;
  Alcotest.(check int) "no drops" 0 (Net.Red.drops red)

let test_red_hard_capacity () =
  let red =
    Net.Red.create (Sim.Rng.create 1) ~min_threshold:5 ~max_threshold:10
      ~capacity:10 ()
  in
  for i = 1 to 30 do
    ignore (Net.Red.offer red (mk_packet i))
  done;
  Alcotest.(check bool) "bounded" true (Net.Red.length red <= 10)

let test_red_drops_early_under_sustained_load () =
  let red =
    Net.Red.create (Sim.Rng.create 1) ~weight:0.2 ~min_threshold:10
      ~max_threshold:40 ~capacity:60 ()
  in
  (* Sustain a standing queue of ~20 packets: the average settles
     between the thresholds, so drops are probabilistic — some early
     drops, but most arrivals accepted. *)
  for i = 1 to 400 do
    ignore (Net.Red.offer red (mk_packet i));
    if Net.Red.length red > 20 then ignore (Net.Red.poll red)
  done;
  Alcotest.(check bool) "early drops happened" true (Net.Red.early_drops red > 0);
  Alcotest.(check bool) "but most accepted" true (Net.Red.enqueued red > 200)

let test_red_average_tracks_queue () =
  let red =
    Net.Red.create (Sim.Rng.create 1) ~weight:1.0 ~min_threshold:10
      ~max_threshold:20 ~capacity:30 ()
  in
  for i = 1 to 5 do
    ignore (Net.Red.offer red (mk_packet i))
  done;
  (* weight 1 makes the average the instantaneous length at last
     arrival. *)
  check_float "average" 4. (Net.Red.average red)

let test_red_rejects_bad_config () =
  Alcotest.check_raises "thresholds"
    (Invalid_argument "Red.create: need 0 < min_th < max_th <= capacity")
    (fun () ->
      ignore
        (Net.Red.create (Sim.Rng.create 1) ~min_threshold:10 ~max_threshold:5
           ~capacity:20 ()))

(* TCP over a RED bottleneck still completes and sees early drops. *)
let test_red_with_tcp () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  let red =
    Net.Red.create (Sim.Rng.create 3) ~min_threshold:10 ~max_threshold:30
      ~capacity:50 ()
  in
  ignore
    (Net.Network.add_link network ~src:a ~dst:b ~bandwidth_bps:5e6
       ~delay_s:0.02 ~capacity:50 ~qdisc:(Net.Qdisc.red red) ());
  ignore
    (Net.Network.add_link network ~src:b ~dst:a ~bandwidth_bps:5e6
       ~delay_s:0.02 ~capacity:50 ());
  let config = { Tcp.Config.default with Tcp.Config.total_segments = Some 2000 } in
  let c =
    Tcp.Connection.create network ~flow:0 ~src:a ~dst:b
      ~sender:sack_sender ~config
      ~route_data:(fun () -> [| Net.Node.id b |])
      ~route_ack:(fun () -> [| Net.Node.id a |])
      ()
  in
  Tcp.Connection.start c ~at:0.;
  Sim.Engine.run engine ~until:60.;
  Alcotest.(check bool) "finished over RED" true (Tcp.Connection.finished c);
  Alcotest.(check bool) "RED dropped early" true (Net.Red.early_drops red > 0)

(* ------------------------------------------------------------------ *)
(* Eifel                                                               *)
(* ------------------------------------------------------------------ *)

let eifel_engine ?(cwnd = 8.) () =
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = cwnd } in
  let t = Tcp.Sack_core.create ~response:Tcp.Sack_core.eifel config in
  ignore (Tcp.Sack_core.start t ~now:0.);
  t

let force_spurious_retransmit t =
  (* Three SACK-bearing duplicates make seq 0 look lost. *)
  for i = 1 to 3 do
    ignore
      (Tcp.Sack_core.on_ack t ~now:(0.1 +. (0.01 *. float_of_int i))
         (ack ~next:0 ~for_seq:i ~sacks:[ (1, i) ] ()))
  done

let test_eifel_detects_on_original () =
  let t = eifel_engine () in
  force_spurious_retransmit t;
  (* The late ORIGINAL arrives first (for_retx = false): Eifel detects
     the spurious retransmission immediately — no DSACK needed. *)
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:4 ~for_seq:0 ~for_retx:false ()));
  check_float "spurious detected" 1.
    (List.assoc "spurious_detected" (Tcp.Sack_core.metrics t))

let test_eifel_silent_on_genuine_loss () =
  let t = eifel_engine () in
  force_spurious_retransmit t;
  (* The RETRANSMISSION arrives (for_retx = true): the original really
     was lost; no spurious detection. *)
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:4 ~for_seq:0 ~for_retx:true ()));
  check_float "nothing detected" 0.
    (List.assoc "spurious_detected" (Tcp.Sack_core.metrics t))

let test_eifel_restores_ssthresh () =
  let t = eifel_engine () in
  force_spurious_retransmit t;
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:4 ~for_seq:0 ~for_retx:false ()));
  (* ssthresh back at the pre-retransmission window. *)
  ignore (Tcp.Sack_core.on_ack t ~now:0.25 (ack ~next:20 ~for_seq:9 ()));
  let before = Tcp.Sack_core.cwnd t in
  ignore (Tcp.Sack_core.on_ack t ~now:0.3 (ack ~next:21 ~for_seq:20 ()));
  Alcotest.(check bool) "slow-start restoration" true
    (Tcp.Sack_core.cwnd t >= before +. 0.99)

(* ------------------------------------------------------------------ *)
(* RACK                                                                *)
(* ------------------------------------------------------------------ *)

let rack_engine ?(cwnd = 8.) () =
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = cwnd } in
  let t =
    Tcp.Sack_core.create ~response:Tcp.Sack_core.dsack_nm
      ~trigger:Tcp.Sack_core.Rack config
  in
  ignore (Tcp.Sack_core.start t ~now:0.);
  t

(* Establish an RTT estimate so reo_wnd = srtt/4 is meaningful. *)
let warm_rtt t =
  ignore (Tcp.Sack_core.on_ack t ~now:0.1 (ack ~next:1 ~for_seq:0 ()))

let test_rack_not_fooled_by_dupacks_alone () =
  (* A window of four segments, all transmitted together at t = 0; the
     first is delayed in the network while 1..3 arrive. dupthresh-SACK
     retransmits on the third SACK-bearing duplicate; RACK must not —
     the delivered segments are not older than the hole at all, let
     alone by reo_wnd. *)
  let t = rack_engine ~cwnd:4. () in
  let dups =
    List.concat_map
      (fun i ->
        Tcp.Sack_core.on_ack t
          ~now:(0.1 +. (0.001 *. float_of_int i))
          (ack ~next:0 ~for_seq:i ~sacks:[ (1, i) ] ()))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "no dupthresh retransmission" []
    (retransmissions dups);
  (* The delayed original then lands: pure reordering, zero cost. *)
  ignore (Tcp.Sack_core.on_ack t ~now:0.12 (ack ~next:4 ~for_seq:0 ()));
  Alcotest.(check bool) "window never reduced" true
    (Tcp.Sack_core.cwnd t >= 4.)

let test_rack_declares_after_reo_wnd () =
  let t = rack_engine () in
  warm_rtt t;
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.101 (ack ~next:1 ~for_seq:2 ~sacks:[ (2, 2) ] ()));
  (* A much later delivery: the hole (seq 1, sent at ~0) is now older
     than the delivered packet by far more than reo_wnd. *)
  let a =
    Tcp.Sack_core.on_ack t ~now:0.25 (ack ~next:1 ~for_seq:7 ~sacks:[ (2, 7) ] ())
  in
  Alcotest.(check bool) "time-based retransmission of the hole" true
    (List.mem 1 (retransmissions a))

let test_rack_reo_wnd_widens_on_spurious () =
  let t = rack_engine () in
  warm_rtt t;
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.101 (ack ~next:1 ~for_seq:2 ~sacks:[ (2, 2) ] ()));
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.25 (ack ~next:1 ~for_seq:7 ~sacks:[ (2, 7) ] ()));
  (* The retransmission proves spurious via DSACK. *)
  ignore (Tcp.Sack_core.on_ack t ~now:0.3 (ack ~next:8 ~for_seq:1 ()));
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.31 (ack ~next:8 ~for_seq:1 ~dsack:(1, 1) ()));
  check_float "spurious detected" 1.
    (List.assoc "spurious_detected" (Tcp.Sack_core.metrics t))

let test_rack_timer_catches_tail_loss () =
  let t = rack_engine ~cwnd:4. () in
  warm_rtt t;
  (* Everything after seq 0 is lost; no further ACKs arrive. The RACK
     reordering timer (srtt + reo_wnd << RTO) fires and repairs. *)
  let actions = Tcp.Sack_core.on_timer t ~now:0.5 ~key:2 in
  Alcotest.(check bool) "tail repaired before RTO" true
    (retransmissions actions <> [])


(* ------------------------------------------------------------------ *)
(* TCP-DOOR                                                            *)
(* ------------------------------------------------------------------ *)

let door_engine ?(cwnd = 8.) () =
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = cwnd } in
  let t = Tcp.Sack_core.create ~door:true config in
  ignore (Tcp.Sack_core.start t ~now:0.);
  t

let test_door_detects_ooo_acks () =
  let t = door_engine () in
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.1
       { (ack ~next:1 ~for_seq:0 ()) with Tcp.Types.serial = 5 });
  (* serial going backwards = out-of-order ACK delivery. *)
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.11
       { (ack ~next:2 ~for_seq:1 ()) with Tcp.Types.serial = 3 });
  Alcotest.(check (float 0.)) "ooo event counted" 1.
    (List.assoc "ooo_events" (Tcp.Sack_core.metrics t))

let test_door_freeze_suppresses_reduction () =
  let t = door_engine () in
  (* Establish srtt and trigger the OOO freeze. *)
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.1
       { (ack ~next:1 ~for_seq:0 ()) with Tcp.Types.serial = 5 });
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.11
       { (ack ~next:1 ~for_seq:1 ()) with Tcp.Types.serial = 3 });
  let cwnd_before = Tcp.Sack_core.cwnd t in
  (* A "loss" detected inside the freeze window: three SACKed above. *)
  for i = 2 to 4 do
    ignore
      (Tcp.Sack_core.on_ack t
         ~now:(0.12 +. (0.002 *. float_of_int i))
         { (ack ~next:1 ~for_seq:i ~sacks:[ (2, i) ] ()) with
           Tcp.Types.serial = 5 + i })
  done;
  (* Recovery entered (so the hole is repaired)... *)
  Alcotest.(check bool) "recovery entered" true (Tcp.Sack_core.in_recovery t);
  (* ...but the window was not reduced. *)
  Alcotest.(check bool) "window not reduced during freeze" true
    (Tcp.Sack_core.cwnd t >= cwnd_before)

let test_door_no_freeze_without_ooo () =
  let t = door_engine () in
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.1
       { (ack ~next:1 ~for_seq:0 ()) with Tcp.Types.serial = 0 });
  let cwnd_before = Tcp.Sack_core.cwnd t in
  for i = 2 to 4 do
    ignore
      (Tcp.Sack_core.on_ack t
         ~now:(0.12 +. (0.002 *. float_of_int i))
         { (ack ~next:1 ~for_seq:i ~sacks:[ (2, i) ] ()) with
           Tcp.Types.serial = i })
  done;
  Alcotest.(check bool) "normal halving without OOO" true
    (Tcp.Sack_core.cwnd t < cwnd_before)

let test_door_completes_under_multipath () =
  let mbps =
    Experiments.Runner.multipath_throughput ~seed:9 ~duration:20. ~epsilon:0.
      ~sender:(snd Experiments.Variants.tcp_door) ()
  in
  let sack =
    Experiments.Runner.multipath_throughput ~seed:9 ~duration:20. ~epsilon:0.
      ~sender:sack_sender ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "DOOR beats SACK under reordering (%.1f vs %.1f)" mbps sack)
    true (mbps > 2. *. sack)

(* ------------------------------------------------------------------ *)
(* Timeseries / Probe                                                  *)
(* ------------------------------------------------------------------ *)

let test_timeseries_basic () =
  let series = Stats.Timeseries.create () in
  Alcotest.(check bool) "empty" true (Stats.Timeseries.is_empty series);
  Stats.Timeseries.record series ~time:1. 10.;
  Stats.Timeseries.record series ~time:2. 20.;
  Alcotest.(check int) "length" 2 (Stats.Timeseries.length series);
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "last"
    (Some (2., 20.))
    (Stats.Timeseries.last series)

let test_timeseries_rejects_backwards () =
  let series = Stats.Timeseries.create () in
  Stats.Timeseries.record series ~time:5. 1.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeseries.record: time went backwards") (fun () ->
      Stats.Timeseries.record series ~time:4. 1.)

let probe_connection () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  ignore
    (Net.Network.add_duplex network ~src:a ~dst:b ~bandwidth_bps:10e6
       ~delay_s:0.01 ~capacity:50 ());
  let c =
    Tcp.Connection.create network ~flow:0 ~src:a ~dst:b
      ~sender:sack_sender ~config:Tcp.Config.default
      ~route_data:(fun () -> [| Net.Node.id b |])
      ~route_ack:(fun () -> [| Net.Node.id a |])
      ()
  in
  Tcp.Connection.start c ~at:0.;
  (engine, c)

let test_probe_samples_cwnd () =
  let engine, c = probe_connection () in
  let series = Experiments.Probe.cwnd_series engine c ~interval:0.5 ~until:5. in
  Sim.Engine.run engine ~until:6.;
  Alcotest.(check int) "ten samples" 10 (Stats.Timeseries.length series);
  (* Slow start: the window grows across the trace. *)
  match (Stats.Timeseries.to_list series, Stats.Timeseries.last series) with
  | (_, first) :: _, Some (_, final) ->
    Alcotest.(check bool) "window grew" true (final > first)
  | _ -> Alcotest.fail "no samples"

(* A NaN or infinite step (or a NaN horizon) would schedule no sample at
   all: an empty series with no error. *)
let probe_rejects label ~interval ~until message =
  let engine, c = probe_connection () in
  Alcotest.check_raises label (Invalid_argument message) (fun () ->
      ignore (Experiments.Probe.cwnd_series engine c ~interval ~until))

let bad_interval = "Probe.cwnd_series: interval must be positive and finite"

let test_probe_rejects_nan () =
  probe_rejects "NaN interval" ~interval:Float.nan ~until:5. bad_interval;
  probe_rejects "NaN until" ~interval:0.5 ~until:Float.nan
    "Probe.cwnd_series: until is NaN"

let test_probe_rejects_infinite_interval () =
  probe_rejects "infinite interval" ~interval:Float.infinity ~until:5.
    bad_interval;
  probe_rejects "infinite interval and until" ~interval:Float.infinity
    ~until:Float.infinity bad_interval

(* ------------------------------------------------------------------ *)
(* Route flaps                                                         *)
(* ------------------------------------------------------------------ *)

let test_route_flap_pr_clean () =
  let r =
    Experiments.Route_flap.run ~duration:20. ~sender:(module Core.Tcp_pr) ()
  in
  Alcotest.(check int) "no spurious duplicates" 0
    r.Experiments.Runner.spurious_duplicates;
  Alcotest.(check bool) "meaningful throughput" true
    (r.Experiments.Runner.mbps > 3.)

let test_route_flap_sack_spurious () =
  let r =
    Experiments.Route_flap.run ~duration:20. ~sender:sack_sender ()
  in
  Alcotest.(check bool) "sack retransmits spuriously" true
    (r.Experiments.Runner.spurious_duplicates > 0)


(* ------------------------------------------------------------------ *)
(* Tahoe / Reno recovery styles                                        *)
(* ------------------------------------------------------------------ *)

let test_tahoe_slow_starts_on_fast_retransmit () =
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. } in
  let t = Tcp.Newreno_core.create ~style:Tahoe config in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  let dup for_seq = ack ~next:0 ~for_seq () in
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (dup 1));
  ignore (Tcp.Newreno_core.on_ack t ~now:0.11 (dup 2));
  let a = Tcp.Newreno_core.on_ack t ~now:0.12 (dup 3) in
  Alcotest.(check (list int)) "retransmits" [ 0 ] (retransmissions a);
  Alcotest.(check (float 1e-9)) "window collapses to one" 1.
    (Tcp.Newreno_core.cwnd t)

let test_reno_exits_recovery_on_partial_ack () =
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. } in
  let t = Tcp.Newreno_core.create ~style:Reno config in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  let dup for_seq = ack ~next:0 ~for_seq () in
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (dup 1));
  ignore (Tcp.Newreno_core.on_ack t ~now:0.11 (dup 2));
  ignore (Tcp.Newreno_core.on_ack t ~now:0.12 (dup 4));
  (* Partial acknowledgement: classic Reno ends recovery without
     retransmitting the next hole. *)
  let partial =
    Tcp.Newreno_core.on_ack t ~now:0.2 (ack ~next:3 ~for_seq:0 ())
  in
  Alcotest.(check (list int)) "no hole retransmission" []
    (retransmissions partial);
  Alcotest.(check (float 1e-9)) "deflated to ssthresh" 4.
    (Tcp.Newreno_core.cwnd t)

let test_tahoe_reno_complete_end_to_end () =
  let run (module M : Tcp.Sender.S) =
    let engine = Sim.Engine.create () in
    let network = Net.Network.create engine in
    let a = Net.Network.add_node network in
    let b = Net.Network.add_node network in
    let rng = Sim.Rng.create 4 in
    ignore
      (Net.Network.add_link network ~src:a ~dst:b ~bandwidth_bps:8e6
         ~delay_s:0.02 ~capacity:50
         ~loss:(Net.Loss_model.bernoulli rng ~p:0.02)
         ());
    ignore
      (Net.Network.add_link network ~src:b ~dst:a ~bandwidth_bps:8e6
         ~delay_s:0.02 ~capacity:50 ());
    let config =
      { Tcp.Config.default with Tcp.Config.total_segments = Some 300 }
    in
    let c =
      Tcp.Connection.create network ~flow:0 ~src:a ~dst:b ~sender:(module M)
        ~config
        ~route_data:(fun () -> [| Net.Node.id b |])
        ~route_ack:(fun () -> [| Net.Node.id a |])
        ()
    in
    Tcp.Connection.start c ~at:0.;
    Sim.Engine.run engine ~until:300.;
    Tcp.Connection.finished c
  in
  Alcotest.(check bool) "tahoe finishes" true
    (run (snd Experiments.Variants.tahoe));
  Alcotest.(check bool) "reno finishes" true
    (run (snd Experiments.Variants.reno))

(* ------------------------------------------------------------------ *)
(* Link jitter                                                         *)
(* ------------------------------------------------------------------ *)

let test_jitter_reorders_within_link () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 6 in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e8
      ~delay_s:0.001 ~capacity:200 ~jitter:(rng, 0.050) ()
  in
  let order = ref [] in
  Net.Link.set_deliver link (fun p -> order := p.Net.Packet.uid :: !order);
  for i = 1 to 50 do
    Net.Link.send link
      (Net.Packet.create ~uid:i ~flow:0 ~src:0 ~dst:1 ~size:100 ~route:[| 1 |]
         ~born:0. (Net.Packet.Raw 0))
  done;
  Sim.Engine.run_to_completion engine;
  let delivered = List.rev !order in
  Alcotest.(check int) "nothing lost" 50 (List.length delivered);
  Alcotest.(check bool) "order scrambled" true
    (delivered <> List.sort compare delivered)

let test_jitter_zero_keeps_fifo () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 6 in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e8
      ~delay_s:0.001 ~capacity:200 ~jitter:(rng, 0.) ()
  in
  let order = ref [] in
  Net.Link.set_deliver link (fun p -> order := p.Net.Packet.uid :: !order);
  for i = 1 to 20 do
    Net.Link.send link
      (Net.Packet.create ~uid:i ~flow:0 ~src:0 ~dst:1 ~size:100 ~route:[| 1 |]
         ~born:0. (Net.Packet.Raw 0))
  done;
  Sim.Engine.run_to_completion engine;
  let delivered = List.rev !order in
  Alcotest.(check bool) "fifo preserved" true
    (delivered = List.sort compare delivered)

let test_jitter_sweep_shape () =
  (* At heavy jitter TCP-PR must beat TCP-SACK decisively. *)
  let points =
    Experiments.Jitter.sweep ~seed:2 ~duration:15. ~jitters_ms:[ 30. ]
      ~variants:[ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]
      ()
  in
  let mbps variant =
    match
      List.find_opt (fun p -> p.Experiments.Jitter.variant = variant) points
    with
    | Some p -> p.Experiments.Jitter.mbps
    | None -> Alcotest.fail "missing point"
  in
  Alcotest.(check bool)
    (Printf.sprintf "PR (%.1f) >> SACK (%.1f)" (mbps "TCP-PR") (mbps "TCP-SACK"))
    true
    (mbps "TCP-PR" > 3. *. mbps "TCP-SACK")

let () =
  Alcotest.run "extensions"
    [ ( "delayed-ack",
        [ Alcotest.test_case "defers first" `Quick test_delack_defers_first_segment;
          Alcotest.test_case "acks second" `Quick test_delack_second_segment_acks;
          Alcotest.test_case "ooo immediate" `Quick
            test_delack_out_of_order_immediate;
          Alcotest.test_case "duplicate immediate" `Quick
            test_delack_duplicate_immediate;
          Alcotest.test_case "disabled" `Quick
            test_delack_disabled_always_immediate;
          Alcotest.test_case "end to end" `Quick test_delack_end_to_end;
          Alcotest.test_case "timer flushes" `Quick test_delack_timer_flushes ] );
      ( "red",
        [ Alcotest.test_case "below min threshold" `Quick
            test_red_accepts_below_min_threshold;
          Alcotest.test_case "hard capacity" `Quick test_red_hard_capacity;
          Alcotest.test_case "early drops" `Quick
            test_red_drops_early_under_sustained_load;
          Alcotest.test_case "average tracks queue" `Quick
            test_red_average_tracks_queue;
          Alcotest.test_case "rejects bad config" `Quick
            test_red_rejects_bad_config;
          Alcotest.test_case "tcp over red" `Quick test_red_with_tcp ] );
      ( "eifel",
        [ Alcotest.test_case "detects on original" `Quick
            test_eifel_detects_on_original;
          Alcotest.test_case "silent on genuine loss" `Quick
            test_eifel_silent_on_genuine_loss;
          Alcotest.test_case "restores ssthresh" `Quick
            test_eifel_restores_ssthresh ] );
      ( "rack",
        [ Alcotest.test_case "not fooled by dupacks" `Quick
            test_rack_not_fooled_by_dupacks_alone;
          Alcotest.test_case "declares after reo_wnd" `Quick
            test_rack_declares_after_reo_wnd;
          Alcotest.test_case "reo_wnd widens" `Quick
            test_rack_reo_wnd_widens_on_spurious;
          Alcotest.test_case "timer catches tail loss" `Quick
            test_rack_timer_catches_tail_loss ] );
      ( "tcp-door",
        [ Alcotest.test_case "detects ooo acks" `Quick test_door_detects_ooo_acks;
          Alcotest.test_case "freeze suppresses reduction" `Quick
            test_door_freeze_suppresses_reduction;
          Alcotest.test_case "no freeze without ooo" `Quick
            test_door_no_freeze_without_ooo;
          Alcotest.test_case "beats sack under multipath" `Slow
            test_door_completes_under_multipath ] );
      ( "timeseries",
        [ Alcotest.test_case "basic" `Quick test_timeseries_basic;
          Alcotest.test_case "rejects backwards" `Quick
            test_timeseries_rejects_backwards;
          Alcotest.test_case "probe samples cwnd" `Quick test_probe_samples_cwnd;
          Alcotest.test_case "probe rejects NaN" `Quick test_probe_rejects_nan;
          Alcotest.test_case "probe rejects infinite interval" `Quick
            test_probe_rejects_infinite_interval ]
      );
      ( "route-flap",
        [ Alcotest.test_case "tcp-pr clean" `Quick test_route_flap_pr_clean;
          Alcotest.test_case "sack spurious" `Quick test_route_flap_sack_spurious
        ] );
      ( "tahoe-reno",
        [ Alcotest.test_case "tahoe slow starts" `Quick
            test_tahoe_slow_starts_on_fast_retransmit;
          Alcotest.test_case "reno exits on partial ack" `Quick
            test_reno_exits_recovery_on_partial_ack;
          Alcotest.test_case "both complete" `Quick
            test_tahoe_reno_complete_end_to_end ] );
      ( "jitter",
        [ Alcotest.test_case "reorders within link" `Quick
            test_jitter_reorders_within_link;
          Alcotest.test_case "zero keeps fifo" `Quick test_jitter_zero_keeps_fifo;
          Alcotest.test_case "sweep shape" `Slow test_jitter_sweep_shape ] ) ]
