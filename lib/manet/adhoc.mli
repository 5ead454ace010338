(** Mobile ad-hoc network substrate — the environment of the paper's
    future-work section ("TCP-PR will work well in wireless multi-hop
    environments") and of the MANET studies in its related work.

    [nodes] mobile radios form a full mesh of potential links; a link
    delivers only while its endpoints are within [range] (out-of-range
    transmissions are lost, like a broken radio hop). Routes are
    recomputed per packet by breadth-first search over the *current*
    connectivity — so node movement changes paths mid-flow, reordering
    whatever is in flight and occasionally black-holing packets on stale
    routes, exactly the behaviour that motivates reordering-robust
    TCP in MANETs. *)

type t

(** [create engine rng ~nodes ~width ~height ~range ~speed_range ()]
    builds the radios, mesh and mobility process.
    @param bandwidth_bps per link (default 2 Mb/s, early-802.11-like).
    @param delay_s per hop (default 3 ms). *)
val create :
  Sim.Engine.t ->
  Sim.Rng.t ->
  nodes:int ->
  width:float ->
  height:float ->
  range:float ->
  speed_range:float * float ->
  ?bandwidth_bps:float ->
  ?delay_s:float ->
  unit ->
  t

val network : t -> Net.Network.t

val mobility : t -> Mobility.t

(** [node t i] is the network node of radio [i]. *)
val node : t -> int -> Net.Node.t

(** [current_route t ~src ~dst] is a minimum-hop route over the current
    connectivity, or [None] while partitioned. Each call builds a fresh
    array — MANET routes genuinely change per packet, so they are the
    one place routes are not shared. *)
val current_route : t -> src:int -> dst:int -> int array option

(** [route_fn t ~src ~dst] returns a per-packet route chooser for
    {!Tcp.Connection}: it recomputes the route on every call and falls
    back to the last known route while the network is partitioned (those
    packets are lost at the broken hop, as in a real MANET with stale
    routing state). *)
val route_fn : t -> src:int -> dst:int -> unit -> int array
