(** Shard-partitioned many-flow scale scenario.

    The {!Scale} dumbbell, rebuilt as [cells] independent access legs
    around one shared bottleneck cell and run on a
    {!Sim.Sharded_engine}: each leg (hosts, access links, churn slots)
    is pinned to shard [cell mod domains]; the bottleneck cell lives on
    shard 0. Every leg<->bottleneck crossing is a {!Net.Shard_egress}
    boundary carrying 10 ms of propagation — the conservative lookahead
    that lets shards advance concurrently — so the end-to-end RTT
    matches the single-dumbbell scenario (20 ms bottleneck + 2x1 ms
    access).

    Determinism contract (pinned by [test/test_sharded.ml] and the
    [scale-smoke-sharded] CI stage): for fixed [seed]/[flows]/[cells],
    the simulated timeline — and, when [record] is set, every per-cell
    probe digest and the merged digest — is byte-identical at every
    [domains], including [domains = 1], which runs the plain serial
    engine and is the differential baseline. This holds because slot
    RNG streams are derived once at the root in global slot order,
    cells allocate disjoint flow-id ranges, boundary hand-off computes
    arrival time with the same float expression on the local and remote
    paths, each cell's boundary latency carries a distinct
    nanosecond-scale skew (so different cells' packets never reach the
    shared bottleneck at equal float times, where queue order would
    fall back to domain-count-dependent engine insertion order), and
    each cell's probe events are emitted by a single engine in its
    deterministic order. *)

type result = {
  flows : int;
  cells : int;
  domains : int;
  duration : float;
  transfers_started : int;
  transfers_completed : int;
  segments_completed : int;
  goodput_mbps : float;
  events_executed : int;
  timer_arms : int;
  timer_cancels : int;
  timer_fires : int;
  messages : int;  (** cross-shard ring messages delivered *)
  windows : int;  (** conductor synchronization windows *)
  crossings : int;  (** packets through all leg<->bottleneck boundaries *)
  pending_at_end : int;
  cell_digests : string array;
      (** per-cell probe-trace digests, cell order; [[||]] unless recorded *)
  merged_digest : string option;
      (** digest over [cell_digests]; [None] unless recorded *)
  sharded : Sim.Sharded_engine.t;
  networks : Net.Network.t array;  (** one per shard *)
  workloads : Workload.Flow_churn.t array;  (** one per cell *)
  probes : Tcp.Probe.t array;
      (** one per cell when probing was requested; [[||]] otherwise *)
}

val default_cells : int

(** Hand-off latency at each leg<->bottleneck boundary, seconds. *)
val cross_delay_s : float

(** [run ~domains ~flows ()] builds the partitioned topology, spawns
    one {!Workload.Flow_churn} instance per cell, and runs the sharded
    engine for [duration] simulated seconds. [cells] (default
    {!default_cells}) is clamped to [flows]. [record] buffers every
    probe line per cell and fills [cell_digests]/[merged_digest] —
    memory grows with traffic, so leave it off for large runs.
    [probe_hook], called once per cell before the run starts, lets the
    caller subscribe monitors to each cell's probe (probes are created
    when either [record] or [probe_hook] is given). Raises
    [Invalid_argument] on non-positive [flows], [domains], [cells] or
    [duration] (NaN included). *)
val run :
  ?seed:int ->
  ?sender:string * (module Tcp.Sender.S) ->
  ?config:Tcp.Config.t ->
  ?duration:float ->
  ?cells:int ->
  ?record:bool ->
  ?probe_hook:(cell:int -> Tcp.Probe.t -> unit) ->
  domains:int ->
  flows:int ->
  unit ->
  result
