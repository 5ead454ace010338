(* Tests for the workload generators: Ftp bulk-flow batches (spawn
   validation, unbounded backlog, start jitter, throughput accounting)
   and Parking-lot cross traffic (per-pair fan-out and labels). *)

let sack = snd Experiments.Variants.tcp_sack

(* Two nodes joined by a clean 10 Mb/s duplex link. *)
let duplex_pair () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let src = Net.Network.add_node network in
  let dst = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src ~dst ~bandwidth_bps:10e6 ~delay_s:0.01
       ~capacity:100 ());
  ignore
    (Net.Network.add_link network ~src:dst ~dst:src ~bandwidth_bps:10e6
       ~delay_s:0.01 ~capacity:100 ());
  (engine, network, src, dst)

let spawn_ftp ?(count = 1) ?(start_window = 0.) ?(config = Tcp.Config.default)
    network ~src ~dst =
  Workload.Ftp.spawn network ~sender:sack ~label:"bulk" ~count ~first_flow:0
    ~src ~dst
    ~route_data:(fun () -> [| Net.Node.id dst |])
    ~route_ack:(fun () -> [| Net.Node.id src |])
    ~config
    ~start_rng:(Sim.Rng.create 11)
    ~start_window ()

let test_spawn_count_and_labels () =
  let _engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:3 network ~src ~dst in
  Alcotest.(check int) "three flows" 3 (List.length flows);
  List.iter
    (fun f -> Alcotest.(check string) "label" "bulk" f.Workload.Ftp.label)
    flows

let test_spawn_zero_count () =
  let _engine, network, src, dst = duplex_pair () in
  Alcotest.(check int) "no flows" 0
    (List.length (spawn_ftp ~count:0 network ~src ~dst))

let test_spawn_validation () =
  let _engine, network, src, dst = duplex_pair () in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Ftp.spawn: negative count") (fun () ->
      ignore (spawn_ftp ~count:(-1) network ~src ~dst));
  Alcotest.check_raises "negative window"
    (Invalid_argument "Ftp.spawn: negative start window") (fun () ->
      ignore (spawn_ftp ~start_window:(-1.) network ~src ~dst))

(* Ftp forces [total_segments = None]: a flow spawned from a bounded
   config keeps transferring past the bound. *)
let test_spawn_unbounded_backlog () =
  let engine, network, src, dst = duplex_pair () in
  let config =
    { Tcp.Config.default with Tcp.Config.total_segments = Some 5 }
  in
  let flows = spawn_ftp ~config network ~src ~dst in
  Sim.Engine.run engine ~until:5.;
  let flow = List.hd flows in
  let segments = Tcp.Connection.received_segments flow.Workload.Ftp.connection in
  if segments <= 5 then
    Alcotest.failf "backlog still bounded: only %d segments delivered" segments

(* start_window = 0 starts every flow immediately: all of them have
   delivered data well before the window a jittered start would use. *)
let test_spawn_immediate_start () =
  let engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:4 ~start_window:0. network ~src ~dst in
  Sim.Engine.run engine ~until:1.;
  List.iter
    (fun f ->
      Alcotest.(check bool) "flow has started" true
        (Tcp.Connection.received_bytes f.Workload.Ftp.connection > 0))
    flows

let test_throughput_accounting () =
  let engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:2 network ~src ~dst in
  Sim.Engine.run engine ~until:2.;
  let start_bytes = Workload.Ftp.snapshot_bytes flows in
  Sim.Engine.run engine ~until:6.;
  let reported =
    Workload.Ftp.throughputs flows ~window_start_bytes:start_bytes ~seconds:4.
  in
  Alcotest.(check int) "one rate per flow" 2 (List.length reported);
  List.iteri
    (fun i (label, mbps) ->
      let f = List.nth flows i in
      Alcotest.(check string) "labels preserved" f.Workload.Ftp.label label;
      let end_bytes =
        Tcp.Connection.received_bytes f.Workload.Ftp.connection
      in
      let start = List.nth start_bytes i in
      let expected = float_of_int (end_bytes - start) *. 8. /. 4. /. 1e6 in
      Alcotest.(check (float 1e-9)) "rate matches byte delta" expected mbps;
      Alcotest.(check bool) "flow made progress" true (mbps > 0.))
    reported

let test_throughput_mismatch () =
  let _engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:2 network ~src ~dst in
  Alcotest.check_raises "snapshot mismatch"
    (Invalid_argument "Ftp.throughputs: snapshot length mismatch") (fun () ->
      ignore (Workload.Ftp.throughputs flows ~window_start_bytes:[ 0 ] ~seconds:1.))

(* ------------------------------------------------------------------ *)
(* Cross traffic                                                       *)
(* ------------------------------------------------------------------ *)

let test_cross_traffic_fan_out () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let flows_per_pair = 2 in
  let flows =
    Workload.Cross_traffic.spawn lot ~flows_per_pair ~first_flow:10
      ~config:Tcp.Config.default
      ~start_rng:(Sim.Rng.create 3)
      ~start_window:0. ()
  in
  let pairs = List.length lot.Topo.Parking_lot.cross_pairs in
  Alcotest.(check int) "paper matrix has six pairs" 6 pairs;
  Alcotest.(check int) "flows_per_pair flows per pair"
    (pairs * flows_per_pair) (List.length flows);
  let label_counts = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let l = f.Workload.Ftp.label in
      Hashtbl.replace label_counts l
        (1 + Option.value ~default:0 (Hashtbl.find_opt label_counts l)))
    flows;
  List.iter
    (fun (pair : Topo.Parking_lot.cross_pair) ->
      let label = Printf.sprintf "cross-%d" pair.Topo.Parking_lot.index in
      Alcotest.(check (option int))
        (label ^ " count") (Some flows_per_pair)
        (Hashtbl.find_opt label_counts label))
    lot.Topo.Parking_lot.cross_pairs

let test_cross_traffic_delivers () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let flows =
    Workload.Cross_traffic.spawn lot ~flows_per_pair:1 ~first_flow:0
      ~config:Tcp.Config.default
      ~start_rng:(Sim.Rng.create 3)
      ~start_window:0. ()
  in
  Sim.Engine.run engine ~until:5.;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Workload.Ftp.label ^ " delivers")
        true
        (Tcp.Connection.received_bytes f.Workload.Ftp.connection > 0))
    flows

(* ------------------------------------------------------------------ *)
(* Flow churn                                                          *)
(* ------------------------------------------------------------------ *)

let churn_run ?(seed = 3) () =
  Experiments.Scale.run ~seed ~duration:1.5 ~flows:50 ()

let churn_fingerprint (r : Experiments.Scale.result) =
  ( r.Experiments.Scale.transfers_started,
    r.Experiments.Scale.transfers_completed,
    r.Experiments.Scale.segments_completed,
    r.Experiments.Scale.events_executed,
    Experiments.Scale.timer_ops r )

let test_churn_deterministic () =
  Alcotest.(check bool)
    "same seed reproduces the run exactly" true
    (churn_fingerprint (churn_run ()) = churn_fingerprint (churn_run ()))

let test_churn_seed_changes_run () =
  Alcotest.(check bool)
    "different seed gives a different run" true
    (churn_fingerprint (churn_run ~seed:3 ())
    <> churn_fingerprint (churn_run ~seed:4 ()))

let test_churn_population_invariants () =
  let r = churn_run () in
  let w = r.Experiments.Scale.workload in
  Alcotest.(check int) "slot count" 50 (Workload.Flow_churn.flows w);
  Alcotest.(check bool) "work happened" true
    (Workload.Flow_churn.transfers_started w > 0);
  (* Closed loop: each slot runs at most one transfer at a time. *)
  Alcotest.(check bool) "active bounded by slots" true
    (Workload.Flow_churn.active w <= 50);
  Alcotest.(check int) "started = completed + active"
    (Workload.Flow_churn.transfers_started w)
    (Workload.Flow_churn.transfers_completed w + Workload.Flow_churn.active w);
  Alcotest.(check int) "bytes follow segments"
    (Workload.Flow_churn.segments_completed w * Tcp.Config.mss)
    (Workload.Flow_churn.bytes_completed w)

(* Churn on Experiments.Scale's dumbbell shape (32 pairs at most, 1 Mb/s
   of bottleneck per slot) for [duration] seconds with the invariant
   monitors armed. Returns the workload, the violations and the number
   of flow ids the probe saw. *)
let monitored_churn (variant, sender) ~config ~churn ~duration =
  let flows = churn.Workload.Flow_churn.flows in
  let engine = Sim.Engine.create () in
  let dumbbell =
    Topo.Dumbbell.create engine ~pairs:(min flows 32)
      ~bottleneck_bandwidth_bps:(float_of_int flows *. 1e6)
      ~queue_capacity:64 ~access_queue_capacity:128 ()
  in
  let probe = Tcp.Probe.create () in
  let monitors = Check.Monitor.for_variant ~variant ~config in
  Check.Monitor.arm probe monitors;
  let seen = Hashtbl.create 64 in
  Sim.Trace.on probe (fun ev -> Hashtbl.replace seen (Tcp.Probe.flow ev) ());
  let w =
    Workload.Flow_churn.spawn_endpoints
      (Workload.Flow_churn.endpoints_of_dumbbell dumbbell)
      ~sender ~config ~churn
      ~rngs:(Workload.Flow_churn.slot_rngs (Sim.Rng.create 0) ~flows)
      ~probe ()
  in
  Sim.Engine.run engine ~until:duration;
  (w, Check.Monitor.all_violations monitors, Hashtbl.length seen)

(* The invariant monitors over churn traffic, for every sender variant.
   A slot's first transfer creates its connection; every later one
   resets that connection, its sender and its receiver in place under a
   fresh flow id, so each variant's [reset] runs here with the probe
   armed. Completion detaches both endpoints, so late packets of a
   finished flow strand there. Flow ids must stay fresh per transfer: a
   reused id would feed a new transfer's stream into the per-flow
   monitor state of the old one. *)
let test_churn_monitors_hold () =
  let flows = 48 and duration = 0.6 in
  List.iter
    (fun ((variant, _) as v) ->
      let w, violations, seen =
        monitored_churn v ~config:Experiments.Scale.default_config
          ~churn:(Experiments.Scale.default_churn ~flows ~duration)
          ~duration
      in
      Alcotest.(check bool)
        (variant ^ ": a slot ran a second transfer")
        true
        (Workload.Flow_churn.transfers_completed w > 0
        && Workload.Flow_churn.transfers_started w > flows);
      Alcotest.(check bool) (variant ^ ": probe saw more than one flow") true
        (seen > 1);
      Alcotest.(check int) (variant ^ ": no violations") 0
        (List.length violations))
    Experiments.Variants.all

(* A paced application reader keeps the drain timer running after a
   transfer completes, so with short think times a slot's connection is
   often still busy when its next transfer begins: the slot then builds
   a fresh connection instead of resetting the busy one, and the loop
   carries on with the monitors clean. *)
let test_churn_busy_connection () =
  let flows = 16 and duration = 3. in
  let w, violations, _ =
    monitored_churn Experiments.Variants.tcp_pr
      ~config:
        { Experiments.Scale.default_config with
          Tcp.Config.rcv_buf_segments = Some 64;
          rcv_app_rate = Some 50. }
      ~churn:
        { (Experiments.Scale.default_churn ~flows ~duration) with
          Workload.Flow_churn.mean_think_s = 0.01 }
      ~duration
  in
  Alcotest.(check bool) "slots ran several transfers each" true
    (Workload.Flow_churn.transfers_completed w > 3 * flows);
  Alcotest.(check int) "no violations" 0 (List.length violations)

let test_churn_validation () =
  let engine = Sim.Engine.create () in
  let dumbbell = Topo.Dumbbell.create engine () in
  let bad churn =
    Workload.Flow_churn.spawn dumbbell
      ~sender:(snd Experiments.Variants.tcp_pr)
      ~config:Tcp.Config.default ~churn
      ~rng:(Sim.Rng.create 0)
      ()
  in
  let base = Workload.Flow_churn.default_config in
  List.iter
    (fun (label, churn) ->
      Alcotest.(check bool) label true
        (try
           ignore (bad churn);
           false
         with Invalid_argument _ -> true))
    [ ("zero flows", { base with Workload.Flow_churn.flows = 0 });
      ("negative think", { base with Workload.Flow_churn.mean_think_s = -1. });
      ( "inverted sizes",
        { base with Workload.Flow_churn.min_segments = 8; max_segments = 4 } );
      (* Every plain comparison is false for NaN, so each float check
         must reject it explicitly. *)
      ("NaN think", { base with Workload.Flow_churn.mean_think_s = Float.nan });
      ("NaN ramp", { base with Workload.Flow_churn.ramp_s = Float.nan });
      ("NaN alpha", { base with Workload.Flow_churn.size_alpha = Float.nan })
    ];
  Alcotest.check_raises "NaN scale duration"
    (Invalid_argument "Scale.run: duration must be positive") (fun () ->
      ignore (Experiments.Scale.run ~duration:Float.nan ~flows:10 ()));
  (* Closed-loop churn never drains: an infinite run would never
     return. *)
  Alcotest.check_raises "infinite scale duration"
    (Invalid_argument "Scale.run: duration must be finite") (fun () ->
      ignore (Experiments.Scale.run ~duration:Float.infinity ~flows:10 ()))

(* --- Adversary controller (closed-loop reordering dial) ------------ *)

let test_adversary_validation () =
  Alcotest.check_raises "target 0"
    (Invalid_argument "Adversary.create: target must be in (0, 1)") (fun () ->
      ignore (Workload.Adversary.create ~target:0. ()));
  Alcotest.check_raises "target 1"
    (Invalid_argument "Adversary.create: target must be in (0, 1)") (fun () ->
      ignore (Workload.Adversary.create ~target:1. ()));
  Alcotest.check_raises "inverted bounds"
    (Invalid_argument "Adversary.create: need 0 <= eps_min < eps_max")
    (fun () ->
      ignore (Workload.Adversary.create ~eps_min:2. ~eps_max:1. ~target:0.05 ()));
  let t = Workload.Adversary.create ~target:0.05 () in
  Alcotest.check_raises "NaN density"
    (Invalid_argument "Adversary.observe: density must be finite and >= 0")
    (fun () -> Workload.Adversary.observe t ~density:Float.nan);
  Alcotest.check_raises "negative density"
    (Invalid_argument "Adversary.observe: density must be finite and >= 0")
    (fun () -> Workload.Adversary.observe t ~density:(-0.1))

let test_adversary_log_step () =
  let t = Workload.Adversary.create ~eps_min:1. ~target:0.05 () in
  Alcotest.(check (float 0.)) "first dial is eps_min" 1.
    (Workload.Adversary.epsilon t);
  Alcotest.(check bool) "no density before first epoch" true
    (Float.is_nan (Workload.Adversary.last_density t));
  (* Measured 4x hot: the dial should step up by exactly ln 4. *)
  Workload.Adversary.observe t ~density:0.2;
  Alcotest.(check (float 1e-12)) "proportional step in log space"
    (1. +. Float.log (0.2 /. 0.05))
    (Workload.Adversary.epsilon t);
  Alcotest.(check int) "epoch counted" 1 (Workload.Adversary.epochs t);
  Alcotest.(check (float 0.)) "density remembered" 0.2
    (Workload.Adversary.last_density t);
  (* A too-cold proposal clamps at eps_min, never below. *)
  Workload.Adversary.observe t ~density:1e-9;
  Alcotest.(check (float 0.)) "clamped at eps_min" 1.
    (Workload.Adversary.epsilon t);
  (* A zero-density epoch has no log: halve back toward eps_min. *)
  let cold = Workload.Adversary.create ~eps_min:1. ~target:0.05 () in
  Workload.Adversary.observe cold ~density:0.4;
  let before = Workload.Adversary.epsilon cold in
  Workload.Adversary.observe cold ~density:0.;
  Alcotest.(check (float 1e-12)) "zero density halves toward eps_min"
    ((1. +. before) /. 2.)
    (Workload.Adversary.epsilon cold);
  (* A huge measured density clamps at eps_max. *)
  let hot = Workload.Adversary.create ~eps_max:2. ~target:1e-6 () in
  Workload.Adversary.observe hot ~density:0.9;
  Alcotest.(check (float 0.)) "clamped at eps_max" 2.
    (Workload.Adversary.epsilon hot)

let test_adversary_converged () =
  let t = Workload.Adversary.create ~target:0.05 () in
  Alcotest.(check bool) "not converged before any epoch" false
    (Workload.Adversary.converged t);
  Workload.Adversary.observe t ~density:0.054;
  Alcotest.(check bool) "within default 10%" true
    (Workload.Adversary.converged t);
  Alcotest.(check bool) "outside a tighter band" false
    (Workload.Adversary.converged ~tolerance:0.05 t);
  Workload.Adversary.observe t ~density:0.06;
  Alcotest.(check bool) "outside default 10%" false
    (Workload.Adversary.converged t)

(* Against an ideal exponential plant density(eps) = c * exp(-eps), the
   log-space step lands on the fixed point in one epoch and stays
   there; a noisy plant stays mean-reverting (each dial is exactly the
   noise-free dial plus that epoch's log-space noise, so the error
   never compounds). *)
let test_adversary_fixed_point () =
  let target = 0.05 in
  let plant eps = 0.8 *. Float.exp (-.eps) in
  let t = Workload.Adversary.create ~target () in
  Workload.Adversary.observe t ~density:(plant (Workload.Adversary.epsilon t));
  for _ = 1 to 5 do
    let d = plant (Workload.Adversary.epsilon t) in
    Workload.Adversary.observe t ~density:d;
    Alcotest.(check (float 1e-9)) "on the fixed point" target
      (Workload.Adversary.last_density t)
  done;
  Alcotest.(check bool) "converged" true (Workload.Adversary.converged t);
  (* Multiplicative epoch noise: the dial error equals that epoch's
     log-noise alone, bounded by ln(max noise factor). *)
  let noisy = Workload.Adversary.create ~target () in
  let fixed = Float.log (0.8 /. target) in
  let factors = [ 1.3; 0.7; 1.15; 0.85; 1.0; 1.25 ] in
  List.iteri
    (fun i f ->
      Workload.Adversary.observe noisy
        ~density:(f *. plant (Workload.Adversary.epsilon noisy));
      if i > 0 then
        Alcotest.(check bool) "dial error bounded by the epoch's log-noise"
          true
          (Float.abs (Workload.Adversary.epsilon noisy -. fixed)
          <= Float.log (1. /. 0.7) +. 1e-9))
    factors

let () =
  Alcotest.run "workload"
    [ ( "ftp",
        [ Alcotest.test_case "count and labels" `Quick
            test_spawn_count_and_labels;
          Alcotest.test_case "zero count" `Quick test_spawn_zero_count;
          Alcotest.test_case "validation" `Quick test_spawn_validation;
          Alcotest.test_case "unbounded backlog" `Quick
            test_spawn_unbounded_backlog;
          Alcotest.test_case "immediate start" `Quick
            test_spawn_immediate_start;
          Alcotest.test_case "throughput accounting" `Quick
            test_throughput_accounting;
          Alcotest.test_case "throughput mismatch" `Quick
            test_throughput_mismatch ] );
      ( "cross-traffic",
        [ Alcotest.test_case "fan-out and labels" `Quick
            test_cross_traffic_fan_out;
          Alcotest.test_case "delivers" `Quick test_cross_traffic_delivers ] );
      ( "flow-churn",
        [ Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
          Alcotest.test_case "seed changes run" `Quick
            test_churn_seed_changes_run;
          Alcotest.test_case "population invariants" `Quick
            test_churn_population_invariants;
          Alcotest.test_case "monitors hold" `Quick test_churn_monitors_hold;
          Alcotest.test_case "busy connection replaced" `Quick
            test_churn_busy_connection;
          Alcotest.test_case "validation" `Quick test_churn_validation ] );
      ( "adversary",
        [ Alcotest.test_case "validation" `Quick test_adversary_validation;
          Alcotest.test_case "log-space step and clamps" `Quick
            test_adversary_log_step;
          Alcotest.test_case "converged" `Quick test_adversary_converged;
          Alcotest.test_case "exponential-plant fixed point" `Quick
            test_adversary_fixed_point ] )
    ]
