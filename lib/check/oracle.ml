module Scenario = Experiments.Scenario

type topology =
  | Dumbbell
  | Parking_lot
  | Lattice

type scenario = {
  seed : int;
  topology : topology;
  loss : float;
  jitter : float;
  epsilon : float;
  route_flap : bool;
  delayed_ack : bool;
  total_segments : int;
  bandwidth_scale : float;
  (* Host-stack realism axis (PR9). [coalesce] = (timer_s, max_burst)
     enables GRO/interrupt coalescing on every link into the sink;
     [rcv_buf] bounds the receive socket buffer in segments. Both
     [None] reproduce the pre-PR9 scenario space exactly. *)
  coalesce : (float * int) option;
  rcv_buf : int option;
  time_limit : float;
}

let generate ~seed () =
  let rng = Sim.Rng.split (Sim.Rng.create seed) "oracle-scenario" in
  let topology =
    match Sim.Rng.int rng 3 with
    | 0 -> Dumbbell
    | 1 -> Parking_lot
    | _ -> Lattice
  in
  let hostile = topology <> Parking_lot in
  (* The parking lot provides congestion loss from its own queues; the
     other topologies get injected corruption loss and jitter. *)
  let loss = if hostile then Sim.Rng.float_range rng ~lo:0. ~hi:0.06 else 0. in
  let jitter =
    if hostile then Sim.Rng.float_range rng ~lo:0. ~hi:0.02 else 0.
  in
  let epsilon = if Sim.Rng.bool rng ~p:0.5 then 0. else 0.5 in
  let route_flap = topology = Lattice && Sim.Rng.bool rng ~p:0.4 in
  let delayed_ack = Sim.Rng.bool rng ~p:0.3 in
  let total_segments = 30 + Sim.Rng.int rng 50 in
  let bandwidth_scale =
    match topology with
    | Dumbbell -> Sim.Rng.float_range rng ~lo:0.3 ~hi:1.
    | Parking_lot -> Sim.Rng.float_range rng ~lo:0.02 ~hi:0.08
    | Lattice -> 1.
  in
  (* Host-stack draws come LAST: every draw above is positionally
     identical to the pre-PR9 generator, so seeds keep producing the
     same base environment (pinned by the sweep goldens). *)
  let coalesce =
    if Sim.Rng.bool rng ~p:0.35 then
      Some
        ( Sim.Rng.float_range rng ~lo:0.0005 ~hi:0.002,
          2 + Sim.Rng.int rng 4 )
    else None
  in
  let rcv_buf =
    (* Floor of 24 segments: an instantly-reading application keeps
       >= 1/4 of the buffer free (out-of-order data stops at the 3/4
       pressure threshold), so transfers always complete. *)
    if Sim.Rng.bool rng ~p:0.35 then Some (24 + Sim.Rng.int rng 40) else None
  in
  { seed;
    topology;
    loss;
    jitter;
    epsilon;
    route_flap;
    delayed_ack;
    total_segments;
    bandwidth_scale;
    coalesce;
    rcv_buf;
    time_limit = 600. }

let describe s =
  let topology =
    match s.topology with
    | Dumbbell -> "dumbbell"
    | Parking_lot -> "parking-lot"
    | Lattice -> "lattice"
  in
  Printf.sprintf
    "seed=%d %s loss=%.3f jitter=%.3fs eps=%.1f flap=%b delack=%b segs=%d \
     bw-scale=%.3f%s%s"
    s.seed topology s.loss s.jitter s.epsilon s.route_flap s.delayed_ack
    s.total_segments s.bandwidth_scale
    (match s.coalesce with
    | Some (timer_s, burst) ->
      Printf.sprintf " co=%.1fms/%d" (timer_s *. 1e3) burst
    | None -> "")
    (match s.rcv_buf with
    | Some segs -> Printf.sprintf " rbuf=%d" segs
    | None -> "")

let config s =
  { (Scenario.bounded_config s.total_segments) with
    Tcp.Config.delayed_ack = s.delayed_ack;
    rcv_buf_segments = s.rcv_buf;
    rcv_buf_max_segments =
      (match s.rcv_buf with
      | Some segs -> max segs Tcp.Config.default.Tcp.Config.rcv_buf_max_segments
      | None -> Tcp.Config.default.Tcp.Config.rcv_buf_max_segments) }

type report = {
  scenario : scenario;
  variant : string;
  finished : bool;
  delivered : int;
  events : int;
  violations : Monitor.violation list;
  violation_total : int;
  trace_tail : string list;
}

let tail_length = 40

(* The scenario's path. All randomness (loss, jitter, routing) derives
   from [rng], split from the scenario seed and never from the variant,
   so every variant faces the same environment. *)
let path s engine rng =
  (* The jitter stream is split before the loss stream: every seed's
     realisation depends on that order. *)
  let impairments () =
    let jitter = Sim.Rng.split rng "jitter" in
    let loss = Sim.Rng.split rng "loss" in
    ( (if s.loss > 0. then Some (Net.Loss_model.bernoulli loss ~p:s.loss)
       else None),
      if s.jitter > 0. then Some (jitter, s.jitter) else None )
  in
  match s.topology with
  | Dumbbell ->
    let loss, jitter = impairments () in
    Scenario.dumbbell ~bandwidth_scale:s.bandwidth_scale ~queue:12 ?loss
      ?jitter engine
  | Parking_lot ->
    Scenario.parking_lot ~bandwidth_scale:s.bandwidth_scale engine
  | Lattice ->
    let loss, jitter = impairments () in
    let lattice = Scenario.lattice ?loss ?jitter engine in
    if s.route_flap then begin
      (* A mobile-network route change: all traffic hops to the next
         path at a fixed cadence (cf. the paper's Section 5 route
         fluctuation argument). *)
      let path, next = Scenario.rotating lattice in
      let period = 0.75 in
      for k = 1 to int_of_float (s.time_limit /. period) do
        Sim.Engine.schedule_at engine ~time:(float_of_int k *. period) next
      done;
      path
    end
    else Scenario.eps_path lattice rng ~epsilon:s.epsilon

let run s ~variant:(variant_name, sender) =
  let config = config s in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.split (Sim.Rng.create s.seed) "oracle-network" in
  let path = path s engine rng in
  (* The GRO model sits on the sink's ingress. *)
  Option.iter (Scenario.coalesce_sink path) s.coalesce;
  let probe = Tcp.Probe.create () in
  let monitors = Monitor.for_variant ~variant:variant_name ~config in
  Monitor.arm probe monitors;
  (* Probe events are immutable per-emission values, so retaining them
     by reference in the ring is fine; rendering waits until the report
     actually needs the tail. *)
  let recorder = Obs.Flight_recorder.attach ~capacity:tail_length probe in
  let connection =
    Scenario.connect ~probe path ~flow:0 ~at:0. ~sender ~config
  in
  Sim.Engine.run engine ~until:s.time_limit;
  let trace_tail =
    List.map Tcp.Probe.to_line (Obs.Flight_recorder.to_list recorder)
  in
  { scenario = s;
    variant = variant_name;
    finished = Tcp.Connection.finished connection;
    delivered = Tcp.Connection.received_segments connection;
    events = Obs.Flight_recorder.total recorder;
    violations = Monitor.all_violations monitors;
    violation_total =
      List.fold_left (fun acc m -> acc + Monitor.violation_count m) 0 monitors;
    trace_tail }

let passed r =
  r.finished
  && r.delivered >= r.scenario.total_segments
  && r.violation_total = 0

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s variant=%s: %s (delivered %d/%d, %d events)@,"
    (describe r.scenario) r.variant
    (if passed r then "PASS" else "FAIL")
    r.delivered r.scenario.total_segments r.events;
  if not r.finished then Format.fprintf ppf "transfer did not finish@,";
  if r.violation_total > 0 then begin
    Format.fprintf ppf "%d violation(s):@," r.violation_total;
    List.iter
      (fun v -> Format.fprintf ppf "  %a@," Monitor.pp_violation v)
      r.violations
  end;
  if (not (passed r)) && r.trace_tail <> [] then begin
    Format.fprintf ppf "last %d probe events:@," (List.length r.trace_tail);
    List.iter (fun line -> Format.fprintf ppf "  %s@," line) r.trace_tail
  end;
  Format.fprintf ppf "@]"
