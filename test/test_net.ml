(* Tests for the network substrate: packets, queues, loss models, link
   timing, and source-routed forwarding. *)

let check_float = Alcotest.(check (float 1e-9))

let mk_packet ?(uid = 0) ?(flow = 0) ?(size = 1000) ~src ~dst ~route () =
  Net.Packet.create ~uid ~flow ~src ~dst ~size ~route ~born:0.
    (Net.Packet.Raw 0)

(* ------------------------------------------------------------------ *)
(* Drop_tail                                                           *)
(* ------------------------------------------------------------------ *)

let test_drop_tail_fifo () =
  let q = Net.Drop_tail.create ~capacity:3 in
  let p i = mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] () in
  Alcotest.(check bool) "accepts" true (Net.Drop_tail.offer q (p 1));
  Alcotest.(check bool) "accepts" true (Net.Drop_tail.offer q (p 2));
  let first = Option.get (Net.Drop_tail.poll q) in
  Alcotest.(check int) "fifo order" 1 first.Net.Packet.uid

let test_drop_tail_overflow () =
  let q = Net.Drop_tail.create ~capacity:2 in
  let p i = mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] () in
  ignore (Net.Drop_tail.offer q (p 1));
  ignore (Net.Drop_tail.offer q (p 2));
  Alcotest.(check bool) "rejects when full" false (Net.Drop_tail.offer q (p 3));
  Alcotest.(check int) "drop counted" 1 (Net.Drop_tail.drops q);
  Alcotest.(check int) "enqueued counted" 2 (Net.Drop_tail.enqueued q);
  Alcotest.(check int) "length" 2 (Net.Drop_tail.length q)

let drop_tail_prop =
  QCheck.Test.make ~name:"never exceeds capacity" ~count:300
    QCheck.(pair (int_range 1 20) (list bool))
    (fun (capacity, ops) ->
      let q = Net.Drop_tail.create ~capacity in
      List.iteri
        (fun i offer ->
          if offer then
            ignore
              (Net.Drop_tail.offer q (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ()))
          else ignore (Net.Drop_tail.poll q))
        ops;
      Net.Drop_tail.length q <= capacity)

(* ------------------------------------------------------------------ *)
(* Loss_model                                                          *)
(* ------------------------------------------------------------------ *)

let test_loss_perfect () =
  let p = mk_packet ~src:0 ~dst:1 ~route:[| 1 |] () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "never drops" false
      (Net.Loss_model.drops Net.Loss_model.perfect p)
  done

let test_loss_periodic () =
  let model = Net.Loss_model.periodic ~period:3 in
  let p = mk_packet ~src:0 ~dst:1 ~route:[| 1 |] () in
  let outcomes = List.init 9 (fun _ -> Net.Loss_model.drops model p) in
  Alcotest.(check (list bool))
    "every third drops"
    [ false; false; true; false; false; true; false; false; true ]
    outcomes

let test_loss_bernoulli_rate () =
  let rng = Sim.Rng.create 5 in
  let model = Net.Loss_model.bernoulli rng ~p:0.3 in
  let p = mk_packet ~src:0 ~dst:1 ~route:[| 1 |] () in
  let n = 20_000 in
  let drops = ref 0 in
  for _ = 1 to n do
    if Net.Loss_model.drops model p then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_loss_custom () =
  let model = Net.Loss_model.custom (fun p -> p.Net.Packet.uid mod 2 = 0) in
  let even = mk_packet ~uid:4 ~src:0 ~dst:1 ~route:[| 1 |] () in
  let odd = mk_packet ~uid:5 ~src:0 ~dst:1 ~route:[| 1 |] () in
  Alcotest.(check bool) "even dropped" true (Net.Loss_model.drops model even);
  Alcotest.(check bool) "odd passes" false (Net.Loss_model.drops model odd)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

(* 1000-byte packet on a 1 Mb/s link: 8 ms transmission; delivery at
   transmission + propagation. *)
let test_link_timing () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6
      ~delay_s:0.010 ~capacity:10 ()
  in
  let delivered = ref [] in
  Net.Link.set_deliver link (fun p ->
      delivered := (Sim.Engine.now engine, p.Net.Packet.uid) :: !delivered);
  Net.Link.send link (mk_packet ~uid:1 ~src:0 ~dst:1 ~route:[| 1 |] ());
  Sim.Engine.run_to_completion engine;
  match !delivered with
  | [ (time, 1) ] -> check_float "tx + prop" 0.018 time
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_link_serialises () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6
      ~delay_s:0.010 ~capacity:10 ()
  in
  let delivered = ref [] in
  Net.Link.set_deliver link (fun p ->
      delivered := (Sim.Engine.now engine, p.Net.Packet.uid) :: !delivered);
  Net.Link.send link (mk_packet ~uid:1 ~src:0 ~dst:1 ~route:[| 1 |] ());
  Net.Link.send link (mk_packet ~uid:2 ~src:0 ~dst:1 ~route:[| 1 |] ());
  Sim.Engine.run_to_completion engine;
  match List.rev !delivered with
  | [ (t1, 1); (t2, 2) ] ->
    check_float "first" 0.018 t1;
    (* Second starts transmitting when the first finishes at 8 ms. *)
    check_float "second serialised" 0.026 t2
  | _ -> Alcotest.fail "expected two deliveries in order"

let test_link_queue_overflow_drops () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6
      ~delay_s:0.001 ~capacity:2 ()
  in
  let count = ref 0 in
  Net.Link.set_deliver link (fun _ -> incr count);
  (* One on the wire + two queued fit; the other two drop. *)
  for i = 1 to 5 do
    Net.Link.send link (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ())
  done;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "delivered" 3 !count;
  Alcotest.(check int) "queue drops" 2 (Net.Link.queue_drops link);
  Alcotest.(check int) "transmitted" 3 (Net.Link.transmitted_packets link);
  Alcotest.(check int) "bytes" 3000 (Net.Link.transmitted_bytes link)

let test_link_fifo_order () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e7
      ~delay_s:0.002 ~capacity:100 ()
  in
  let order = ref [] in
  Net.Link.set_deliver link (fun p -> order := p.Net.Packet.uid :: !order);
  for i = 1 to 20 do
    Net.Link.send link (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ())
  done;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list int)) "fifo" (List.init 20 (fun i -> i + 1))
    (List.rev !order)

let test_link_loss_injection () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e7
      ~delay_s:0.001 ~capacity:100
      ~loss:(Net.Loss_model.periodic ~period:2) ()
  in
  let count = ref 0 in
  Net.Link.set_deliver link (fun _ -> incr count);
  for i = 1 to 10 do
    Net.Link.send link (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ())
  done;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "half delivered" 5 !count;
  Alcotest.(check int) "losses counted" 5 (Net.Link.injected_losses link)

let test_link_set_bandwidth () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6 ~delay_s:0.
      ~capacity:10 ()
  in
  let times = ref [] in
  Net.Link.set_deliver link (fun _ -> times := Sim.Engine.now engine :: !times);
  Net.Link.send link (mk_packet ~uid:1 ~src:0 ~dst:1 ~route:[| 1 |] ());
  Sim.Engine.run_to_completion engine;
  Net.Link.set_bandwidth link 2e6;
  Net.Link.send link (mk_packet ~uid:2 ~src:0 ~dst:1 ~route:[| 1 |] ());
  Sim.Engine.run_to_completion engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    check_float "1 Mb/s tx" 0.008 t1;
    check_float "2 Mb/s tx" (0.008 +. 0.004) t2
  | _ -> Alcotest.fail "expected two deliveries"

(* ---- Event tap: multiple subscribers, subscription order, and the
   chronological event sequence of a clean transmission. *)

let test_link_tap_multiple_subscribers () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6
      ~delay_s:0.010 ~capacity:10 ()
  in
  Net.Link.set_deliver link (fun _ -> ());
  (* Handlers must copy fields during the callback: the link reuses one
     note record per emission. *)
  let seen = ref [] in
  let subscribe tag =
    Sim.Trace.on (Net.Link.events link) (fun (note : Net.Link.note) ->
        seen := (tag, note.Net.Link.kind) :: !seen)
  in
  subscribe "first";
  subscribe "second";
  Net.Link.send link (mk_packet ~uid:1 ~src:0 ~dst:1 ~route:[| 1 |] ());
  Sim.Engine.run_to_completion engine;
  let events = List.rev !seen in
  (* Each emission reaches both handlers, in subscription order. *)
  let kinds_for tag =
    List.filter_map (fun (t, k) -> if t = tag then Some k else None) events
  in
  Alcotest.(check bool) "both handlers see the same events" true
    (kinds_for "first" = kinds_for "second");
  Alcotest.(check (list string))
    "handlers run in subscription order per emission"
    [ "first"; "second"; "first"; "second" ]
    (List.map fst events);
  Alcotest.(check bool) "transmission precedes delivery" true
    (kinds_for "first" = [ Net.Link.Transmit_start; Net.Link.Delivered ])

let test_link_tap_unarmed_is_silent () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6
      ~delay_s:0.010 ~capacity:10 ()
  in
  Alcotest.(check bool) "no subscribers: unarmed" false
    (Sim.Trace.armed (Net.Link.events link));
  Sim.Trace.on (Net.Link.events link) ignore;
  Alcotest.(check bool) "subscriber arms the tap" true
    (Sim.Trace.armed (Net.Link.events link))

(* ---- Queue instrumentation: occupancy histograms and drop causes. *)

let test_drop_tail_occupancy_histogram () =
  let q = Net.Drop_tail.create ~capacity:3 in
  let p i = mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] () in
  ignore (Net.Drop_tail.offer q (p 1));
  ignore (Net.Drop_tail.offer q (p 2));
  ignore (Net.Drop_tail.offer q (p 3));
  ignore (Net.Drop_tail.offer q (p 4));
  (* rejected: not recorded *)
  let h = Net.Drop_tail.occupancy q in
  Alcotest.(check int) "one sample per accepted packet" 3
    (Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "deepest occupancy" 3 (Obs.Metrics.Histogram.max_value h);
  Alcotest.(check int) "shallowest occupancy" 1
    (Obs.Metrics.Histogram.min_value h)

let test_red_occupancy_histogram () =
  let red =
    Net.Red.create (Sim.Rng.create 7) ~weight:1. ~min_threshold:5
      ~max_threshold:10 ~capacity:20 ()
  in
  for i = 1 to 4 do
    ignore (Net.Red.offer red (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ()))
  done;
  let h = Net.Red.occupancy red in
  Alcotest.(check int) "one sample per accepted packet" 4
    (Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "deepest occupancy" 4 (Obs.Metrics.Histogram.max_value h)

let test_link_queue_accessors () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e6
      ~delay_s:0.001 ~capacity:2 ()
  in
  Net.Link.set_deliver link (fun _ -> ());
  for i = 1 to 5 do
    Net.Link.send link (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ())
  done;
  Sim.Engine.run_to_completion engine;
  (* One on the wire, two queued, two dropped. *)
  Alcotest.(check int) "enqueued" 2 (Net.Link.queue_enqueued link);
  Alcotest.(check int) "drop-tail has no early drops" 0
    (Net.Link.queue_early_drops link);
  Alcotest.(check int) "occupancy samples = enqueued" 2
    (Obs.Metrics.Histogram.count (Net.Link.queue_occupancy link))

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let line_network () =
  (* 0 - 1 - 2 chain with duplex links. *)
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let nodes = Net.Network.add_nodes network 3 in
  (match nodes with
  | [ a; b; c ] ->
    ignore
      (Net.Network.add_duplex network ~src:a ~dst:b ~bandwidth_bps:1e7
         ~delay_s:0.001 ~capacity:10 ());
    ignore
      (Net.Network.add_duplex network ~src:b ~dst:c ~bandwidth_bps:1e7
         ~delay_s:0.001 ~capacity:10 ())
  | _ -> assert false);
  (engine, network, Array.of_list nodes)

let test_network_forwards_route () =
  let engine, network, nodes = line_network () in
  let received = ref None in
  Net.Node.attach nodes.(2) ~flow:7 (fun p ->
      received := Some (p.Net.Packet.uid, p.Net.Packet.hops));
  let packet =
    Net.Packet.create ~uid:42 ~flow:7 ~src:0 ~dst:2 ~size:500 ~route:[| 1; 2 |]
      ~born:0. (Net.Packet.Raw 9)
  in
  Net.Network.originate network ~from:nodes.(0) packet;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (option (pair int int))) "delivered over 2 hops"
    (Some (42, 2))
    !received

let test_network_stranded_without_handler () =
  let engine, network, nodes = line_network () in
  let packet =
    Net.Packet.create ~uid:1 ~flow:9 ~src:0 ~dst:2 ~size:500 ~route:[| 1; 2 |]
      ~born:0. (Net.Packet.Raw 0)
  in
  Net.Network.originate network ~from:nodes.(0) packet;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "stranded counted" 1 (Net.Node.stranded nodes.(2))

let test_network_detach () =
  let engine, network, nodes = line_network () in
  let hits = ref 0 in
  Net.Node.attach nodes.(2) ~flow:1 (fun _ -> incr hits);
  Net.Node.detach nodes.(2) ~flow:1;
  let packet =
    Net.Packet.create ~uid:1 ~flow:1 ~src:0 ~dst:2 ~size:500 ~route:[| 1; 2 |]
      ~born:0. (Net.Packet.Raw 0)
  in
  Net.Network.originate network ~from:nodes.(0) packet;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "handler removed" 0 !hits

let test_network_shortest_path () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  (* Square with a diagonal: 0-1, 1-3, 0-2, 2-3, plus 0-3 direct. *)
  let n = Array.of_list (Net.Network.add_nodes network 4) in
  let duplex a b =
    ignore
      (Net.Network.add_duplex network ~src:n.(a) ~dst:n.(b) ~bandwidth_bps:1e6
         ~delay_s:0.001 ~capacity:5 ())
  in
  duplex 0 1;
  duplex 1 3;
  duplex 0 2;
  duplex 2 3;
  Alcotest.(check (option (list int)))
    "two hops via 1"
    (Some [ 1; 3 ])
    (Net.Network.shortest_path network ~src:0 ~dst:3);
  duplex 0 3;
  Alcotest.(check (option (list int)))
    "direct link wins"
    (Some [ 3 ])
    (Net.Network.shortest_path network ~src:0 ~dst:3);
  Alcotest.(check (option (list int)))
    "self" (Some [])
    (Net.Network.shortest_path network ~src:0 ~dst:0)

let test_network_shortest_path_unreachable () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let n = Array.of_list (Net.Network.add_nodes network 2) in
  ignore n;
  Alcotest.(check (option (list int)))
    "no route" None
    (Net.Network.shortest_path network ~src:0 ~dst:1)

let test_network_duplicate_link_rejected () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let n = Array.of_list (Net.Network.add_nodes network 2) in
  ignore
    (Net.Network.add_link network ~src:n.(0) ~dst:n.(1) ~bandwidth_bps:1e6
       ~delay_s:0.001 ~capacity:5 ());
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Network.add_link: duplicate link 0->1") (fun () ->
      ignore
        (Net.Network.add_link network ~src:n.(0) ~dst:n.(1) ~bandwidth_bps:1e6
           ~delay_s:0.001 ~capacity:5 ()))

let test_network_uids_unique () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.fresh_uid network in
  let b = Net.Network.fresh_uid network in
  Alcotest.(check bool) "distinct" true (a <> b)

(* Per-path FIFO: packets following the same route arrive in send
   order, no matter the congestion — reordering can only come from path
   diversity. *)
let per_path_fifo_prop =
  QCheck.Test.make ~name:"per-path FIFO delivery" ~count:50
    QCheck.(int_range 2 60)
    (fun count ->
      let engine, network, nodes = line_network () in
      let order = ref [] in
      Net.Node.attach nodes.(2) ~flow:0 (fun p ->
          order := p.Net.Packet.uid :: !order);
      for i = 1 to count do
        let packet =
          Net.Packet.create ~uid:i ~flow:0 ~src:0 ~dst:2 ~size:200
            ~route:[| 1; 2 |] ~born:0. (Net.Packet.Raw 0)
        in
        Net.Network.originate network ~from:nodes.(0) packet
      done;
      Sim.Engine.run_to_completion engine;
      let delivered = List.rev !order in
      delivered = List.sort compare delivered)

(* ------------------------------------------------------------------ *)
(* Red                                                                 *)
(* ------------------------------------------------------------------ *)

let red_packet i = mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ()

let test_red_no_marking_below_min () =
  (* Average below min_threshold: marking probability is zero. *)
  let red =
    Net.Red.create (Sim.Rng.create 7) ~weight:1. ~min_threshold:5
      ~max_threshold:10 ~capacity:20 ()
  in
  for i = 1 to 4 do
    Alcotest.(check bool) "accepted" true (Net.Red.offer red (red_packet i))
  done;
  Alcotest.(check int) "no drops" 0 (Net.Red.drops red)

let test_red_forced_marking_above_max () =
  (* Average at or above max_threshold: marking probability is one,
     every arrival is dropped early. With weight 1 the average tracks
     the instantaneous queue, and a tiny max_p keeps the probabilistic
     band from interfering with the fill. *)
  let red =
    Net.Red.create (Sim.Rng.create 7) ~weight:1. ~max_p:0.001
      ~min_threshold:2 ~max_threshold:5 ~capacity:20 ()
  in
  for i = 1 to 8 do
    ignore (Net.Red.offer red (red_packet i))
  done;
  Alcotest.(check int) "queue capped at max_threshold" 5 (Net.Red.length red);
  Alcotest.(check int) "early drops" 3 (Net.Red.early_drops red);
  Alcotest.(check int) "all drops early" (Net.Red.drops red)
    (Net.Red.early_drops red)

let test_red_capacity_drops_not_early () =
  (* With a sluggish average the queue can physically fill: those are
     tail drops, not early marks. *)
  let red =
    Net.Red.create (Sim.Rng.create 7) ~weight:0.002 ~min_threshold:4
      ~max_threshold:5 ~capacity:5 ()
  in
  for i = 1 to 10 do
    ignore (Net.Red.offer red (red_packet i))
  done;
  Alcotest.(check int) "enqueued" 5 (Net.Red.enqueued red);
  Alcotest.(check int) "tail drops" 5 (Net.Red.drops red);
  Alcotest.(check int) "none early" 0 (Net.Red.early_drops red)

let test_red_marking_rate_tracks_average () =
  (* Hold the queue at a fixed level between the thresholds and measure
     the empirical early-mark rate: strictly positive, monotone in the
     average, and bounded well below the forced-drop regime. *)
  let rate ~level =
    let red =
      Net.Red.create (Sim.Rng.create 11) ~weight:1. ~max_p:0.1
        ~min_threshold:10 ~max_threshold:20 ~capacity:50 ()
    in
    while Net.Red.length red < level do
      ignore (Net.Red.offer red (red_packet 0))
    done;
    let trials = 5000 in
    let before = Net.Red.early_drops red in
    for i = 1 to trials do
      if Net.Red.offer red (red_packet i) then ignore (Net.Red.poll red)
    done;
    float_of_int (Net.Red.early_drops red - before) /. float_of_int trials
  in
  let r12 = rate ~level:12 and r18 = rate ~level:18 in
  Alcotest.(check bool) "positive between thresholds" true (r12 > 0.);
  Alcotest.(check bool) "monotone in average" true (r18 > r12);
  (* p_b at level 18 is 0.08; the geometric spacing roughly doubles it. *)
  Alcotest.(check bool) "bounded" true (r18 < 0.3)

(* ------------------------------------------------------------------ *)
(* Packet_pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_reuses_record () =
  let pool = Net.Packet_pool.create () in
  let p =
    Net.Packet_pool.acquire pool ~uid:1 ~flow:0 ~src:0 ~dst:2 ~size:100
      ~route:[| 1; 2 |] ~born:0. (Net.Packet.Raw 7)
  in
  (* Dirty the packet as forwarding would. *)
  p.Net.Packet.next_hop <- 2;
  p.Net.Packet.hops <- 2;
  Net.Packet_pool.release pool p;
  let q =
    Net.Packet_pool.acquire pool ~uid:2 ~flow:1 ~src:3 ~dst:4 ~size:40
      ~route:[| 4 |] ~born:1. (Net.Packet.Raw 8)
  in
  Alcotest.(check bool) "same physical record" true (p == q);
  Alcotest.(check int) "uid reset" 2 q.Net.Packet.uid;
  Alcotest.(check int) "flow reset" 1 q.Net.Packet.flow;
  Alcotest.(check int) "cursor reset" 0 q.Net.Packet.next_hop;
  Alcotest.(check int) "hops reset" 0 q.Net.Packet.hops;
  Alcotest.(check (array int)) "route replaced" [| 4 |] q.Net.Packet.route;
  (match q.Net.Packet.payload with
  | Net.Packet.Raw 8 -> ()
  | _ -> Alcotest.fail "stale payload survived recycling");
  Alcotest.(check int) "one record ever created" 1
    (Net.Packet_pool.created pool)

let test_pool_double_release_raises () =
  let pool = Net.Packet_pool.create () in
  let p =
    Net.Packet_pool.acquire pool ~uid:1 ~flow:0 ~src:0 ~dst:1 ~size:100
      ~route:[| 1 |] ~born:0. (Net.Packet.Raw 0)
  in
  Net.Packet_pool.release pool p;
  Alcotest.check_raises "second release rejected"
    (Invalid_argument "Packet_pool.release: packet already recycled")
    (fun () -> Net.Packet_pool.release pool p)

let test_pool_growth_bounded_by_peak () =
  let pool = Net.Packet_pool.create () in
  let acquire uid =
    Net.Packet_pool.acquire pool ~uid ~flow:0 ~src:0 ~dst:1 ~size:100
      ~route:[| 1 |] ~born:0. (Net.Packet.Raw uid)
  in
  (* 5 in flight at peak, then 100 sequential acquire/release cycles:
     records created must track the peak, not the packet count. *)
  let batch = List.init 5 acquire in
  List.iter (Net.Packet_pool.release pool) batch;
  for uid = 10 to 109 do
    Net.Packet_pool.release pool (acquire uid)
  done;
  Alcotest.(check int) "peak in flight" 5
    (Net.Packet_pool.peak_outstanding pool);
  Alcotest.(check int) "created = peak in flight" 5
    (Net.Packet_pool.created pool);
  Alcotest.(check int) "all back in pool" 5 (Net.Packet_pool.in_pool pool);
  Alcotest.(check int) "none outstanding" 0 (Net.Packet_pool.outstanding pool)

(* The metric handles view the same state as the int accessors. *)
let test_pool_metric_handles_agree () =
  let pool = Net.Packet_pool.create () in
  let acquire uid =
    Net.Packet_pool.acquire pool ~uid ~flow:0 ~src:0 ~dst:1 ~size:100
      ~route:[| 1 |] ~born:0. (Net.Packet.Raw uid)
  in
  let check_consistent label =
    Alcotest.(check int) (label ^ ": created") (Net.Packet_pool.created pool)
      (Obs.Metrics.Counter.get (Net.Packet_pool.created_counter pool));
    Alcotest.(check int)
      (label ^ ": outstanding")
      (Net.Packet_pool.outstanding pool)
      (Obs.Metrics.Gauge.get (Net.Packet_pool.outstanding_gauge pool));
    Alcotest.(check int) (label ^ ": in_pool") (Net.Packet_pool.in_pool pool)
      (Obs.Metrics.Gauge.get (Net.Packet_pool.in_pool_gauge pool));
    Alcotest.(check int)
      (label ^ ": peak")
      (Net.Packet_pool.peak_outstanding pool)
      (Obs.Metrics.Gauge.peak (Net.Packet_pool.outstanding_gauge pool))
  in
  check_consistent "empty";
  let batch = List.init 3 acquire in
  check_consistent "in flight";
  List.iter (Net.Packet_pool.release pool) batch;
  check_consistent "released";
  Net.Packet_pool.release pool (acquire 9);
  check_consistent "after reuse"

(* End-to-end: a network recycles delivered and dropped packets back
   into its pool, so a steady stream allocates no new records after the
   first. *)
let test_pool_network_steady_state () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src:a ~dst:b ~bandwidth_bps:1e6
       ~delay_s:0.001 ~capacity:4 ());
  Net.Node.attach b ~flow:0 (fun p -> Net.Network.release_packet network p);
  let route = [| Net.Node.id b |] in
  for _ = 1 to 50 do
    let p =
      Net.Network.make_packet network ~flow:0 ~src:(Net.Node.id a)
        ~dst:(Net.Node.id b) ~size:500 ~route
        ~born:(Sim.Engine.now engine) (Net.Packet.Raw 0)
    in
    Net.Network.originate network ~from:a p;
    Sim.Engine.run_to_completion engine
  done;
  let pool = Net.Network.pool network in
  Alcotest.(check int) "single record serves the whole run" 1
    (Net.Packet_pool.created pool);
  Alcotest.(check int) "nothing leaked" 0 (Net.Packet_pool.outstanding pool)

(* ------------------------------------------------------------------ *)
(* Link events                                                         *)
(* ------------------------------------------------------------------ *)

(* Subscribes to every link's event tap and copies (kind, uid) out of
   each note inside the callback: the link reuses one note record per
   emission. *)
let record_link_events network =
  let seen = ref [] in
  List.iter
    (fun link ->
      Sim.Trace.on (Net.Link.events link) (fun (note : Net.Link.note) ->
          seen := (note.Net.Link.kind, note.Net.Link.packet.Net.Packet.uid)
                  :: !seen))
    (Net.Network.links network);
  fun () -> List.rev !seen

let test_link_events_lifecycle () =
  let engine, network, nodes = line_network () in
  let events = record_link_events network in
  Net.Node.attach nodes.(2) ~flow:0 (fun _ -> ());
  let packet =
    Net.Packet.create ~uid:7 ~flow:0 ~src:0 ~dst:2 ~size:500 ~route:[| 1; 2 |]
      ~born:0. (Net.Packet.Raw 0)
  in
  Net.Network.originate network ~from:nodes.(0) packet;
  Sim.Engine.run_to_completion engine;
  (* Two hops: transmit + deliver on each link, the second transmission
     started by the first delivery's forwarding. *)
  Alcotest.(check bool) "transmit, deliver, transmit, deliver" true
    (events ()
    = [ (Net.Link.Transmit_start, 7); (Net.Link.Delivered, 7);
        (Net.Link.Transmit_start, 7); (Net.Link.Delivered, 7) ])

let test_link_events_queue_drop () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src:a ~dst:b ~bandwidth_bps:1e5
       ~delay_s:0.001 ~capacity:1 ());
  let events = record_link_events network in
  Net.Node.attach b ~flow:0 (fun _ -> ());
  for i = 1 to 5 do
    let packet =
      Net.Packet.create ~uid:i ~flow:0 ~src:0 ~dst:1 ~size:500 ~route:[| 1 |]
        ~born:0. (Net.Packet.Raw 0)
    in
    Net.Network.originate network ~from:a packet
  done;
  Sim.Engine.run_to_completion engine;
  let events = events () in
  let uids kind =
    List.filter_map (fun (k, uid) -> if k = kind then Some uid else None) events
  in
  Alcotest.(check (list int)) "drops recorded" [ 3; 4; 5 ]
    (uids Net.Link.Queue_dropped);
  Alcotest.(check (list int)) "buffering recorded" [ 2 ] (uids Net.Link.Queued);
  (* A queued packet's wait is the gap from its [Queued] to its
     [Transmit_start]; transmissions leave the queue in FIFO order. *)
  Alcotest.(check (list int)) "transmissions in arrival order" [ 1; 2 ]
    (uids Net.Link.Transmit_start);
  Alcotest.(check (list int)) "deliveries recorded" [ 1; 2 ]
    (uids Net.Link.Delivered)

(* An injected loss emits [Loss_dropped], and the recycle hook runs only
   after the tap has seen the packet: once recycled, a pooled record may
   be reused for another packet. *)
let test_link_events_loss_before_recycle () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create engine ~id:0 ~src:0 ~dst:1 ~bandwidth_bps:1e7
      ~delay_s:0.001 ~capacity:100
      ~loss:(Net.Loss_model.periodic ~period:2) ()
  in
  Net.Link.set_deliver link (fun _ -> ());
  let lost = ref [] in
  Sim.Trace.on (Net.Link.events link) (fun (note : Net.Link.note) ->
      if note.Net.Link.kind = Net.Link.Loss_dropped then
        lost := note.Net.Link.packet.Net.Packet.uid :: !lost);
  let recycled = ref [] in
  Net.Link.set_recycle link (fun packet ->
      let uid = packet.Net.Packet.uid in
      Alcotest.(check bool)
        (Printf.sprintf "uid %d seen by the tap before recycling" uid)
        true (List.mem uid !lost);
      recycled := uid :: !recycled);
  for i = 1 to 10 do
    Net.Link.send link (mk_packet ~uid:i ~src:0 ~dst:1 ~route:[| 1 |] ())
  done;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "five loss drops" 5 (List.length !lost);
  Alcotest.(check (list int)) "every loss drop recycled" (List.rev !lost)
    (List.rev !recycled)

let () =
  Alcotest.run "net"
    [ ( "drop-tail",
        [ Alcotest.test_case "fifo" `Quick test_drop_tail_fifo;
          Alcotest.test_case "overflow" `Quick test_drop_tail_overflow;
          Alcotest.test_case "occupancy histogram" `Quick
            test_drop_tail_occupancy_histogram;
          QCheck_alcotest.to_alcotest ~long:false drop_tail_prop ] );
      ( "loss-model",
        [ Alcotest.test_case "perfect" `Quick test_loss_perfect;
          Alcotest.test_case "periodic" `Quick test_loss_periodic;
          Alcotest.test_case "bernoulli rate" `Quick test_loss_bernoulli_rate;
          Alcotest.test_case "custom" `Quick test_loss_custom ] );
      ( "link",
        [ Alcotest.test_case "timing" `Quick test_link_timing;
          Alcotest.test_case "serialises" `Quick test_link_serialises;
          Alcotest.test_case "queue overflow" `Quick
            test_link_queue_overflow_drops;
          Alcotest.test_case "fifo order" `Quick test_link_fifo_order;
          Alcotest.test_case "loss injection" `Quick test_link_loss_injection;
          Alcotest.test_case "set bandwidth" `Quick test_link_set_bandwidth;
          Alcotest.test_case "tap multiple subscribers" `Quick
            test_link_tap_multiple_subscribers;
          Alcotest.test_case "tap unarmed is silent" `Quick
            test_link_tap_unarmed_is_silent;
          Alcotest.test_case "queue accessors" `Quick
            test_link_queue_accessors ] );
      ( "network",
        [ Alcotest.test_case "forwards route" `Quick test_network_forwards_route;
          Alcotest.test_case "stranded" `Quick
            test_network_stranded_without_handler;
          Alcotest.test_case "detach" `Quick test_network_detach;
          Alcotest.test_case "shortest path" `Quick test_network_shortest_path;
          Alcotest.test_case "unreachable" `Quick
            test_network_shortest_path_unreachable;
          Alcotest.test_case "duplicate link" `Quick
            test_network_duplicate_link_rejected;
          Alcotest.test_case "unique uids" `Quick test_network_uids_unique;
          QCheck_alcotest.to_alcotest ~long:false per_path_fifo_prop ] );
      ( "packet-pool",
        [ Alcotest.test_case "reuses record" `Quick test_pool_reuses_record;
          Alcotest.test_case "double release raises" `Quick
            test_pool_double_release_raises;
          Alcotest.test_case "growth bounded by peak" `Quick
            test_pool_growth_bounded_by_peak;
          Alcotest.test_case "metric handles agree" `Quick
            test_pool_metric_handles_agree;
          Alcotest.test_case "network steady state" `Quick
            test_pool_network_steady_state ] );
      ( "red",
        [ Alcotest.test_case "no marking below min" `Quick
            test_red_no_marking_below_min;
          Alcotest.test_case "forced marking above max" `Quick
            test_red_forced_marking_above_max;
          Alcotest.test_case "capacity drops not early" `Quick
            test_red_capacity_drops_not_early;
          Alcotest.test_case "occupancy histogram" `Quick
            test_red_occupancy_histogram;
          Alcotest.test_case "marking rate tracks average" `Quick
            test_red_marking_rate_tracks_average ] );
      ( "link-events",
        [ Alcotest.test_case "records lifecycle" `Quick
            test_link_events_lifecycle;
          Alcotest.test_case "records queue drop" `Quick
            test_link_events_queue_drop;
          Alcotest.test_case "loss drop seen before recycle" `Quick
            test_link_events_loss_before_recycle ] ) ]
