(** Many-flow scale scenario: closed-loop {!Workload.Flow_churn} over a
    capacity-scaled dumbbell.

    This is the scheduler's stress regime — thousands of concurrent
    connections, each arming and cancelling retransmission timers per
    packet — used by the [scale] subcommand and the scale benchmark
    suite to measure events/sec and timer ops/sec on the timing
    wheel. *)

type result = {
  flows : int;  (** concurrent flow slots *)
  duration : float;  (** simulated seconds *)
  transfers_started : int;
  transfers_completed : int;
  segments_completed : int;
  goodput_mbps : float;  (** completed-transfer bytes over [duration] *)
  events_executed : int;
  timer_arms : int;
  timer_cancels : int;
  timer_fires : int;
  workload : Workload.Flow_churn.t;
}

(** Scale-tuned TCP config: [min_rto] 0.2 s, [initial_rto] 1 s,
    delayed ACKs on. *)
val default_config : Tcp.Config.t

(** The churn {!run} drives: 0.2 s mean think, 4..256 segment
    transfers, ramp capped at 1 s. *)
val default_churn : flows:int -> duration:float -> Workload.Flow_churn.config

(** [spawn engine ~seed ~sender ~flows ~duration] builds the churn
    shape on [engine]: a dumbbell whose capacity scales with [flows]
    (at most 32 host pairs, ~1 Mb/s of bottleneck per slot, bottleneck
    queues of [max 64 (flows / 2)] packets), carrying {!default_churn}
    with {!default_config} from [Sim.Rng.create seed]. Returns the
    network and the workload; run the engine afterwards. *)
val spawn :
  Sim.Engine.t ->
  seed:int ->
  sender:(module Tcp.Sender.S) ->
  flows:int ->
  duration:float ->
  Net.Network.t * Workload.Flow_churn.t

(** [run ~flows ()] builds the churn with {!spawn} and runs [duration]
    simulated seconds (default 5). [sender] defaults to TCP-PR — the
    all-timer protocol, the wheel's worst case. Raises
    [Invalid_argument] when [flows < 1] or [duration] is not positive
    and finite (NaN and [infinity] included: closed-loop churn never
    drains, so an unbounded run would never return). *)
val run :
  ?seed:int ->
  ?sender:Variants.t ->
  ?duration:float ->
  flows:int ->
  unit ->
  result

(** Timer arms + cancels + fires. *)
val timer_ops : result -> int
