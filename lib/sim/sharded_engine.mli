(** Conservative-lookahead parallel simulation: N independent
    {!Engine}s, one per shard, synchronized in time windows by a
    conductor.

    Shard 0 runs on the calling domain; shards 1..N-1 each get a
    persistent worker domain for the duration of {!run}. Cross-shard
    communication goes through {!channel}s — bounded SPSC rings with a
    declared latency. The minimum channel latency is the lookahead: the
    conductor advances all shards in windows of that width, so a
    message sent during a window (arriving one latency later) can never
    land in simulated time a receiver has already passed. Between
    windows the conductor drains every ring and schedules the carried
    closures into the destination engines, sorted on the total order
    (time, channel creation index, per-channel send stamp) — repeated
    runs of the same scenario are bit-identical, regardless of how the
    domains interleave in wall-clock time.

    With [domains = 1], {!run} is exactly [Engine.run] on the single
    engine — the sharded construction degenerates to the ordinary
    serial simulation, which is what makes it a differential baseline.

    Ownership: build the topology (all shards) from the calling domain
    before {!run}; during {!run}, code executing on shard [i] may touch
    only shard [i]'s engine and state, plus [send] on channels whose
    source is [i]. Exceptions raised on any shard (including ring
    overflow) abort the run and are re-raised on the caller. *)

type t

(** A one-directional inter-shard message queue with a fixed latency. *)
type channel

(** [create ~domains ()] builds [domains] engines (shard ids
    [0..domains-1]). [timer_granularity] is applied to every engine, as
    in {!Engine.create}. *)
val create : domains:int -> ?timer_granularity:float -> unit -> t

val domains : t -> int

(** [engine t shard] is shard [shard]'s engine. Schedule initial events
    into it before {!run}; during {!run} only shard [shard]'s own code
    may touch it. *)
val engine : t -> int -> Engine.t

(** [channel t ~src ~dst ~latency ()] creates a message queue from
    shard [src] to shard [dst] whose messages arrive [latency] seconds
    after they are sent. [latency] must be strictly positive — it is
    the conservative lookahead; [src = dst] is rejected (use the
    shard's own engine). [capacity] (default 16384, rounded up to a
    power of two) bounds the messages in flight within one window;
    overflow raises [Failure] on the sending shard. *)
val channel :
  t -> src:int -> dst:int -> latency:float -> ?capacity:int -> unit -> channel

val channel_latency : channel -> float

(** [send t ch f] enqueues [f] to run on shard [dst] at time
    [now(src) +. latency] — bit-identical to the float a local
    [Engine.schedule_after ~delay:latency] would compute. Must be
    called from the channel's source shard (or from the conductor's
    domain before {!run}). *)
val send : t -> channel -> (unit -> unit) -> unit

(** [send_at t ch ~time f] enqueues [f] for an explicit arrival time.
    Raises [Invalid_argument] if [time < now(src) + latency] — the
    lookahead contract. *)
val send_at : t -> channel -> time:float -> (unit -> unit) -> unit

(** The minimum channel latency — the window width {!run} uses
    ([infinity] when there are no channels: shards are independent and
    run the whole span in one window). *)
val lookahead : t -> float

(** [run t ~until] advances every shard to [until] (inclusive of events
    at [until], like {!Engine.run}). Worker domains live only inside
    this call. Not reentrant. *)
val run : t -> until:float -> unit

(** {2 Counters} (sums over shards; read between runs) *)

val events_executed : t -> int

val timer_arms : t -> int

val timer_cancels : t -> int

val timer_fires : t -> int

(** Pending events across all engines plus undrained ring messages. *)
val pending : t -> int

(** Messages ever pushed across all channels. *)
val messages_sent : t -> int

(** Messages drained and scheduled into destination engines. *)
val messages_delivered : t -> int

(** Synchronization windows executed by {!run} so far. *)
val windows : t -> int
