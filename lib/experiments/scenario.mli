(** The scenario catalogue: the miniature shapes that the golden
    traces, the [report] snapshot, the differential oracle, the
    allocation suite and the extension experiments run, each built in
    this one place.

    Every builder takes the engine to build on and returns a {!path}:
    the network, the two endpoints of the connection under test and the
    per-packet route samplers of both directions. {!connect} puts a
    connection on a path. Randomness comes only from the streams the
    caller passes in, so a caller keeps its own seeds and split labels;
    each builder documents the order in which it splits them, because
    {!Sim.Rng.split} draws from its parent and a reordered split changes
    every later draw. *)

type path = {
  network : Net.Network.t;
  src : Net.Node.t;  (** the data sender's host *)
  dst : Net.Node.t;  (** the sink *)
  route_data : unit -> int array;  (** one data packet's route *)
  route_ack : unit -> int array;  (** one ACK's route *)
  samplers : Multipath.Epsilon_routing.t list;
      (** the epsilon-routing samplers behind the two routes, data
          first; empty on fixed routes *)
}

(** [dumbbell engine] is the Fig. 2 miniature: one host pair across a
    1.5 Mb/s bottleneck with 10-packet queues, on fixed routes.
    @param bandwidth_scale multiplies the bottleneck bandwidth
    (default 1; Fig. 3's golden runs at 0.5, the oracle draws it).
    @param queue bottleneck queue capacity in packets (default 10).
    @param loss loss injector on both directions of the bottleneck.
    @param jitter per-packet extra delay on the bottleneck. *)
val dumbbell :
  ?bandwidth_scale:float ->
  ?queue:int ->
  ?loss:Net.Loss_model.t ->
  ?jitter:Sim.Rng.t * float ->
  Sim.Engine.t ->
  path

(** [hoststack engine] is {!dumbbell} with the host-stack sink: GRO
    coalescing (1 ms timer, bursts of at most 4) on every link into the
    sink. Run it with {!hoststack_config}. *)
val hoststack : Sim.Engine.t -> path

(** [parking_lot ~bandwidth_scale engine] is the paper's Fig. 1 chain
    with every bandwidth scaled, routed along the main flow's path. *)
val parking_lot : bandwidth_scale:float -> Sim.Engine.t -> path

(** [lattice engine] builds the Fig. 5 miniature: three disjoint paths
    of 2, 3 and 4 hops. Route connections over it with {!eps_path} or
    {!rotating}.
    @param bandwidth_bps per link (default 10 Mb/s).
    @param loss loss injector shared by every link.
    @param jitter per-packet extra delay on every link. *)
val lattice :
  ?bandwidth_bps:float ->
  ?loss:Net.Loss_model.t ->
  ?jitter:Sim.Rng.t * float ->
  Sim.Engine.t ->
  Topo.Multipath_lattice.t

(** [eps_path lattice rng ~epsilon] routes every packet over [lattice]
    by epsilon-routing, in both directions: the data sampler is split
    from [rng] under ["fwd" ^ suffix] first, then the ACK sampler under
    ["rev" ^ suffix] (default [suffix] [""]). *)
val eps_path :
  ?suffix:string ->
  Topo.Multipath_lattice.t ->
  Sim.Rng.t ->
  epsilon:float ->
  path

(** [set_epsilon path ~epsilon] retunes the samplers of [path] in
    place ({!Multipath.Epsilon_routing.set_epsilon}). *)
val set_epsilon : path -> epsilon:float -> unit

(** [rotating lattice] is [(path, next)]: [path] sends all traffic of
    both directions over one of [lattice]'s paths, the first to begin
    with, and [next ()] moves it to the following one, cyclically. *)
val rotating : Topo.Multipath_lattice.t -> path * (unit -> unit)

(** [jitter_chain engine rng] is a two-hop chain of 10 Mb/s, 20 ms
    links (queues of 100) whose every link adds a uniform extra delay
    in [\[0, jitter)] (default 5 ms) to each packet. The four link
    streams are split from [rng] under ["hop1"], ["hop1-rev"], ["hop2"]
    and ["hop2-rev"], in that order; a [jitter] of 0 splits none. *)
val jitter_chain : ?jitter:float -> Sim.Engine.t -> Sim.Rng.t -> path

(** [connect path ~flow ~at ~sender ~config] is a connection of [flow]
    from [path.src] to [path.dst] on [path]'s routes, started at [at]. *)
val connect :
  ?probe:Tcp.Probe.t ->
  ?sketch:Obs.Reorder_sketch.t ->
  path ->
  flow:int ->
  at:float ->
  sender:(module Tcp.Sender.S) ->
  config:Tcp.Config.t ->
  Tcp.Connection.t

(** [race path ~flow ~at ~sender ~config] is the Fig. 2 pairing:
    [sender] as [flow] started at [at], and the paper's TCP-SACK
    competitor as [flow + 1] started 50 ms later, both on [path] with
    [config]. Returns the first connection. *)
val race :
  ?probe:Tcp.Probe.t ->
  path ->
  flow:int ->
  at:float ->
  sender:(module Tcp.Sender.S) ->
  config:Tcp.Config.t ->
  Tcp.Connection.t

(** [bounded_config segments]: a transfer of [segments] with a 200 ms
    minimum, 1 s initial and 16 s maximum RTO, so even hostile runs
    finish inside a miniature's time budget. *)
val bounded_config : int -> Tcp.Config.t

(** [hoststack_config segments] is {!bounded_config} with the host-stack
    receiver: a 16-segment socket buffer autotuned up to 24 segments,
    drained by an application reading [app_rate] segments per second
    (default: an instant reader). *)
val hoststack_config : ?app_rate:float -> int -> Tcp.Config.t

(** [coalesce_sink path (timer_s, max_burst)] arms GRO coalescing on
    every link into [path.dst]. *)
val coalesce_sink : path -> float * int -> unit
