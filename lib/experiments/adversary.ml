(* The adaptive-adversary experiment: hold a target measured
   reordering density against every sender variant.

   One long-lived flow runs over the Fig. 5 multipath lattice with
   epsilon-routing on both directions. Time is sliced into epochs; at
   each epoch boundary the {!Workload.Adversary} controller reads the
   density the sink's {!Obs.Reorder} measured over the slice (reordered
   singletons / arrivals, as a delta of the streaming counters — no
   trace recording) and retunes the live samplers with
   {!Multipath.Epsilon_routing.set_epsilon}. This closes the loop the
   paper leaves open: instead of picking an epsilon and hoping for a
   reordering level, the workload dials reordering to a measured
   target, the same dial for all 13 variants.

   The flow is deliberately WINDOW-limited ([max_cwnd] well below the
   path bandwidth-delay product, links fat enough that a full window
   burst drains faster than the inter-path delay gap): queues stay
   empty, so reordering comes purely from the delay difference between
   paths and each off-path packet is exactly one late singleton —
   density tracks the off-path probability, a smooth monotone function
   of epsilon. A congestion-limited flow would instead keep a standing
   queue on the short path; an off-path packet then skips that queue,
   arrives EARLY, and turns the entire queue contents behind it into
   late singletons — a burst amplifier that makes density a cliff in
   epsilon and the epoch estimate useless for control.

   An epoch is a minimum-ARRIVAL span, not a fixed time span: the run
   advances in [epoch_s] time slices, and the controller is fed only
   once the span has accumulated [epoch_arrivals] arrivals. A variant
   whose congestion control collapses under the reordering (persistent
   dupacks read as loss) delivers slowly, so its epochs stretch over
   more slices — but every variant's controller sees equally meaningful
   density estimates, instead of the slow variants feeding noise.

   The verdict does not trust any single epoch. After the controller
   epochs, the dial is frozen at the average of the last half of the
   conclusive epochs' dials (Polyak averaging: each log-space step is
   mean-reverting around the fixed point with independent per-epoch
   noise, so the average is a lower-variance estimate of the dial that
   holds the target than the last proposal) and the run continues until
   a hold span of at least [hold_arrivals] arrivals has accumulated;
   the density over that whole span is the measurement [held] judges. *)

type epoch = {
  index : int;
  epsilon : float;  (* dial during this epoch *)
  arrivals : int;  (* non-duplicate arrivals within the epoch's span *)
  density : float;  (* reordered fraction measured over the epoch *)
}

type point = {
  variant : string;
  target : float;
  tolerance : float;
  epochs : epoch list;  (* conclusive epochs, oldest first *)
  final_epsilon : float;
  hold_arrivals : int;
  final_density : float;
  held : bool;  (* hold-span density within ±tolerance of target *)
}

(* Arrivals an epoch must span before its density feeds the
   controller: ~75 reordered events at the default 5% target, i.e.
   ~12% relative noise per epoch, which the Polyak average then
   divides down. *)
let epoch_arrivals = 1500

(* Window-limited transfer (see the header): [max_cwnd] = 24 segments
   against a ~50 Mb/s, ~41 ms-RTT shortest path keeps utilisation under
   a tenth of capacity, and a 24-segment burst drains a 50 Mb/s link in
   ~3.8 ms — well inside the 10 ms per-hop delay gap between paths.
   The 200 ms RTO floor keeps dupthresh-based variants flowing through
   the spurious timeouts that persistent reordering inflicts on
   them. *)
let adversary_config =
  { Tcp.Config.default with
    Tcp.Config.max_cwnd = 24.;
    min_rto = 0.2;
    initial_rto = 1. }

let lattice_bandwidth_bps = 50e6

let run ?(seed = 1) ?(epoch_s = 3.) ?(max_epochs = 16) ?(hold_arrivals = 20_000)
    ?(target = 0.05) ?(tolerance = 0.1) ~variant ~sender () =
  let engine = Sim.Engine.create () in
  let ctrl = Workload.Adversary.create ~target () in
  let path =
    Scenario.eps_path
      (Scenario.lattice ~bandwidth_bps:lattice_bandwidth_bps engine)
      (Sim.Rng.create seed)
      ~epsilon:(Workload.Adversary.epsilon ctrl)
  in
  let connection =
    Scenario.connect path ~flow:0 ~at:0. ~sender
      ~config:adversary_config (* unbounded transfer: epochs slice it *)
  in
  let ro = Tcp.Connection.receiver_reorder connection in
  (* Reordered singletons only: late retransmissions track the
     sender's loss recovery and would bias the dial on lossy paths. *)
  let late () = Obs.Reorder.reordered ro in
  let set_dial epsilon = Scenario.set_epsilon path ~epsilon in
  let prev_arrivals = ref 0 in
  let prev_late = ref 0 in
  let epochs = ref [] in
  let conclusive = ref 0 in
  let slice = ref 0 in
  let run_slice () =
    incr slice;
    Sim.Engine.run engine ~until:(epoch_s *. float_of_int !slice)
  in
  (* A slow variant needs several slices per epoch; the cap only
     bounds a flow stalled so hard it cannot finish its epochs. *)
  let max_slices = (8 * max_epochs) + 2 in
  while !conclusive < max_epochs && !slice < max_slices do
    let epsilon = Workload.Adversary.epsilon ctrl in
    set_dial epsilon;
    run_slice ();
    let arrivals = Obs.Reorder.arrivals ro - !prev_arrivals in
    if arrivals >= epoch_arrivals then begin
      let d_late = late () - !prev_late in
      prev_arrivals := Obs.Reorder.arrivals ro;
      prev_late := late ();
      let density = float_of_int d_late /. float_of_int arrivals in
      Workload.Adversary.observe ctrl ~density;
      incr conclusive;
      epochs :=
        { index = !conclusive; epsilon; arrivals; density } :: !epochs
    end
  done;
  let epochs = List.rev !epochs in
  (* Polyak average of the last half of the conclusive dials (the
     controller's final proposal counts as one more): the steady-state
     dial estimate. *)
  let final_epsilon =
    let tail_len = max 1 ((List.length epochs + 1) / 2) in
    let dials =
      Workload.Adversary.epsilon ctrl
      :: List.filteri
           (fun i _ -> i >= List.length epochs - (tail_len - 1))
           (List.map (fun e -> e.epsilon) epochs)
    in
    List.fold_left ( +. ) 0. dials /. float_of_int (List.length dials)
  in
  (* Hold phase: freeze the dial and measure one long span. *)
  set_dial final_epsilon;
  let hold_start_arrivals = Obs.Reorder.arrivals ro in
  let hold_start_late = late () in
  let hold_slices = ref 0 in
  let max_hold_slices = 100 in
  while
    Obs.Reorder.arrivals ro - hold_start_arrivals < hold_arrivals
    && !hold_slices < max_hold_slices
  do
    incr hold_slices;
    run_slice ()
  done;
  let span = Obs.Reorder.arrivals ro - hold_start_arrivals in
  let final_density =
    if span = 0 then Float.nan
    else float_of_int (late () - hold_start_late) /. float_of_int span
  in
  { variant;
    target;
    tolerance;
    epochs;
    final_epsilon;
    hold_arrivals = span;
    final_density;
    held =
      (not (Float.is_nan final_density))
      && Float.abs (final_density -. target) <= tolerance *. target }

let sweep ?(seed = 1) ?(epoch_s = 3.) ?(max_epochs = 16)
    ?(hold_arrivals = 20_000) ?(target = 0.05) ?(tolerance = 0.1)
    ?(variants = Variants.all) ?(jobs = 1) () =
  Runner.parallel_map ~jobs
    (fun (variant, sender) ->
      run ~seed ~epoch_s ~max_epochs ~hold_arrivals ~target ~tolerance ~variant
        ~sender ())
    variants

let all_held points = List.for_all (fun p -> p.held) points

let to_table points =
  let table =
    Stats.Table.create
      ~columns:
        [ "variant";
          "epochs";
          "epsilon";
          "arrivals";
          "density";
          "target";
          "held" ]
  in
  List.iter
    (fun p ->
      Stats.Table.add_row table
        [ p.variant;
          string_of_int (List.length p.epochs);
          Printf.sprintf "%.3f" p.final_epsilon;
          string_of_int p.hold_arrivals;
          Printf.sprintf "%.4f" p.final_density;
          Printf.sprintf "%.4f" p.target;
          (if p.held then "yes" else "NO") ])
    points;
  table
