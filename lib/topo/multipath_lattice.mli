(** Multi-path topology standing in for the paper's Fig. 5.

    One source and one destination joined by several node-disjoint
    paths. Every link has the same bandwidth (10 Mb/s), queue capacity
    (100 packets) and propagation delay (10 ms or 60 ms in the paper's
    two simulation sets); paths differ in hop count, so using several of
    them concurrently reorders packets persistently in both directions.
    The default hop counts [3; 4; 5] give three disjoint paths whose
    shortest is the single-path route selected as epsilon -> infinity
    (see {!Multipath.Epsilon_routing}). *)

type t = {
  network : Net.Network.t;
  source : Net.Node.t;
  destination : Net.Node.t;
  hop_counts : int array;  (** links per path *)
  forward_routes : int array array;
      (** per path, source -> destination; shared route arrays, one
          allocation per topology — do not mutate *)
  reverse_routes : int array array;  (** per path, destination -> source *)
}

(** [create engine ()] builds the lattice.
    @param path_hops links per path, each >= 2 (default [\[3; 4; 5\]]).
    @param bandwidth_bps per link (default 10 Mb/s).
    @param delay_s per link (default 10 ms).
    @param loss optional loss injector shared by every link (e.g.
    {!Net.Loss_model.bernoulli} for lossy-environment scenarios).
    @param jitter optional per-packet extra delay on every link, uniform
    in [\[0, j)] with a shared generator. *)
val create :
  Sim.Engine.t ->
  ?path_hops:int list ->
  ?bandwidth_bps:float ->
  ?delay_s:float ->
  ?loss:Net.Loss_model.t ->
  ?jitter:Sim.Rng.t * float ->
  unit ->
  t

(** Number of disjoint paths. *)
val path_count : t -> int

(** One-way propagation delay of each path (hops * link delay). *)
val path_delays : t -> float array
