(** Parking-lot topology with multiple bottlenecks — exactly the
    paper's Fig. 1.

    Core chain 1 - 2 - 3 - 4; main source S enters at node 1 and main
    destination D hangs off node 4. Cross-traffic sources CS1..CS3 feed
    nodes 1..3 with bandwidths 5 / 1.66 / 2.5 Mb/s; cross destinations
    CD1..CD3 hang off nodes 2..4. All other links are 15 Mb/s, making
    1->2, 2->3 and 3->4 the bottlenecks. Core links delay 10 ms, access
    links 5 ms, and every queue holds 50 packets. The cross-traffic
    matrix is the paper's: CS1->CD1, CS1->CD2, CS1->CD3, CS2->CD2,
    CS2->CD3, CS3->CD3.

    [bandwidth_scale] multiplies every bandwidth, implementing the
    Fig. 3 loss-rate sweep ("the variation in loss probability was
    simulated by decreasing the link bandwidth"). *)

type cross_pair = {
  index : int;
  cross_source : Net.Node.t;
  cross_sink : Net.Node.t;
  forward_route : int array;  (** shared route array — do not mutate *)
  reverse_route : int array;
}

type t = {
  network : Net.Network.t;
  source : Net.Node.t;  (** S *)
  destination : Net.Node.t;  (** D *)
  core : Net.Node.t array;  (** nodes 1..4 at indices 0..3 *)
  cross_pairs : cross_pair list;
  main_forward : int array;  (** shared main-flow data route *)
  main_reverse : int array;  (** shared main-flow ACK route *)
}

(** [create engine ()] builds the topology.
    @param bandwidth_scale multiplies all bandwidths (default 1). *)
val create : Sim.Engine.t -> ?bandwidth_scale:float -> unit -> t

(** Main-flow data route S -> 1 -> 2 -> 3 -> 4 -> D (shared array). *)
val route_forward : t -> int array

(** Main-flow ACK route D -> 4 -> 3 -> 2 -> 1 -> S (shared array). *)
val route_reverse : t -> int array
