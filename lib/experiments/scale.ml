type result = {
  flows : int;
  duration : float;
  transfers_started : int;
  transfers_completed : int;
  segments_completed : int;
  goodput_mbps : float;
  events_executed : int;
  timer_arms : int;
  timer_cancels : int;
  timer_fires : int;
  workload : Workload.Flow_churn.t;
}

(* A short-RTO, delayed-ACK config: with sub-second transfers the
   defaults' 1 s RTO floor would park stalled mice for most of the run;
   0.2 s keeps retransmission timers (the wheel's load) on the same
   scale as the transfers. *)
let default_config =
  { Tcp.Config.default with
    Tcp.Config.min_rto = 0.2;
    initial_rto = 1.;
    delayed_ack = true }

let default_churn ~flows ~duration =
  { Workload.Flow_churn.default_config with
    Workload.Flow_churn.flows;
    mean_think_s = 0.2;
    min_segments = 4;
    max_segments = 256;
    ramp_s = Float.min 1.0 (duration /. 4.) }

(* Capacity scales with the population: ~1 Mb/s of bottleneck per slot
   so mice finish in a handful of RTTs, 32 host pairs shared
   round-robin, and bottleneck queues deep enough that loss stays a
   pressure rather than a collapse — RTO churn is the workload, total
   starvation is not. *)
let spawn engine ~seed ~sender ~flows ~duration =
  let pairs = min flows 32 in
  let bottleneck_bandwidth_bps = Float.max 10e6 (float_of_int flows *. 1e6) in
  let access_bandwidth_bps =
    Float.max 100e6 (4. *. bottleneck_bandwidth_bps /. float_of_int pairs)
  in
  let queue_capacity = max 64 (flows / 2) in
  let dumbbell =
    Topo.Dumbbell.create engine ~pairs ~bottleneck_bandwidth_bps
      ~bottleneck_delay_s:0.020 ~access_bandwidth_bps ~access_delay_s:0.001
      ~queue_capacity ~access_queue_capacity:(2 * queue_capacity) ()
  in
  ( dumbbell.Topo.Dumbbell.network,
    Workload.Flow_churn.spawn dumbbell ~sender ~config:default_config
      ~churn:(default_churn ~flows ~duration)
      ~rng:(Sim.Rng.create seed) () )

let run ?(seed = 0) ?(sender = Variants.tcp_pr) ?(duration = 5.) ~flows () =
  if flows < 1 then invalid_arg "Scale.run: flows must be >= 1";
  if not (duration > 0.) then
    invalid_arg "Scale.run: duration must be positive";
  (* Closed-loop churn never drains, so an unbounded run never
     returns. *)
  if not (Float.is_finite duration) then
    invalid_arg "Scale.run: duration must be finite";
  let engine = Sim.Engine.create () in
  let _, workload =
    spawn engine ~seed ~sender:(snd sender) ~flows ~duration
  in
  Sim.Engine.run engine ~until:duration;
  let segments = Workload.Flow_churn.segments_completed workload in
  { flows;
    duration;
    transfers_started = Workload.Flow_churn.transfers_started workload;
    transfers_completed = Workload.Flow_churn.transfers_completed workload;
    segments_completed = segments;
    goodput_mbps =
      float_of_int (segments * Tcp.Config.mss)
      *. 8. /. duration /. 1e6;
    events_executed = Sim.Engine.events_executed engine;
    timer_arms = Sim.Engine.timer_arms engine;
    timer_cancels = Sim.Engine.timer_cancels engine;
    timer_fires = Sim.Engine.timer_fires engine;
    workload }

let timer_ops r = r.timer_arms + r.timer_cancels + r.timer_fires
