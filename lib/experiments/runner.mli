(** Shared scenario runner for the paper's experiments.

    All fairness runs follow the paper's methodology: competing
    long-lived flows share a common source and destination, start
    jittered within the first seconds, warm up, and throughput is the
    data received during the final measurement window ("the total data
    sent during the last 60 seconds of the simulation"). *)

(** A batch of identical flows. *)
type flow_spec = {
  label : string;
  sender : (module Tcp.Sender.S);
  count : int;
}

type fairness_result = {
  throughputs : (string * float) list;
      (** main-flow label and Mb/s over the measurement window *)
  loss_rate : float;
      (** fraction of data packets dropped at queues network-wide during
          the whole run *)
}

(** [parallel_map ~jobs f xs] maps [f] over the grid points [xs] on a
    pool of [jobs] domains ({!Sim.Domain_pool}), preserving input
    order, so tables built from the results are byte-identical to a
    sequential run. With [jobs <= 1] this is exactly [List.map f xs] —
    no domain is spawned. Each job must build its own {!Sim.Engine};
    every experiment in this library does, so grid points never share
    mutable state. *)
val parallel_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [group result ~label] extracts the throughputs of one batch. *)
val group : fairness_result -> label:string -> float list

(** [all_throughputs result] lists every main flow's throughput. *)
val all_throughputs : fairness_result -> float list

(** One flow's outcome in the single-flow scenarios ({!Route_flap},
    {!Manet_experiment}). *)
type flow_result = {
  mbps : float;  (** goodput over the whole run *)
  retransmits : float;
  spurious_duplicates : int;  (** duplicate arrivals at the sink *)
}

(** [flow_result connection ~duration] reads a finished run of
    [duration] simulated seconds. *)
val flow_result : Tcp.Connection.t -> duration:float -> flow_result

(** [dumbbell_fairness ~specs ()] runs competing flow batches over the
    dumbbell.
    @param seed deterministic root seed (default 1).
    @param bottleneck_bandwidth_bps default 15 Mb/s.
    @param config base TCP configuration (default
    {!Tcp.Config.default}).
    @param warmup seconds before the window opens (default 40).
    @param window measurement seconds (default 60). *)
val dumbbell_fairness :
  ?seed:int ->
  ?bottleneck_bandwidth_bps:float ->
  ?config:Tcp.Config.t ->
  ?warmup:float ->
  ?window:float ->
  specs:flow_spec list ->
  unit ->
  fairness_result

(** [parking_lot_fairness ~specs ()] runs competing flow batches S -> D
    across the parking lot of Fig. 1, with long-lived TCP-SACK cross
    traffic (one flow) on each of the paper's six cross pairs.
    @param bandwidth_scale scales every link bandwidth (Fig. 3's
    loss-rate sweep). *)
val parking_lot_fairness :
  ?seed:int ->
  ?bandwidth_scale:float ->
  ?config:Tcp.Config.t ->
  ?warmup:float ->
  ?window:float ->
  specs:flow_spec list ->
  unit ->
  fairness_result

(** [multipath_fairness ~epsilon ~specs ()] runs competing flow batches
    over the Fig. 5 lattice (10 ms links), every packet epsilon-routed
    independently: fairness *under* persistent reordering (an extension;
    the paper measures multi-path throughput for one flow at a time). *)
val multipath_fairness :
  ?seed:int ->
  ?warmup:float ->
  ?duration:float ->
  epsilon:float ->
  specs:flow_spec list ->
  unit ->
  fairness_result

(** [multipath_throughput ~epsilon ~sender ()] runs one flow over the
    Fig. 5 lattice under epsilon-routing of both data and ACKs and
    returns its goodput in Mb/s over [warmup, duration].
    @param delay_s per-link propagation delay (default 10 ms).
    @param warmup seconds excluded from the measurement (default 0) —
    with 60 ms links slow start alone takes many seconds, so steady
    state needs a warmup.
    @param duration simulated seconds (default 60). *)
val multipath_throughput :
  ?seed:int ->
  ?delay_s:float ->
  ?config:Tcp.Config.t ->
  ?warmup:float ->
  ?duration:float ->
  epsilon:float ->
  sender:(module Tcp.Sender.S) ->
  unit ->
  float
