(** Fig. 6 — throughput of every reordering-robust scheme under
    epsilon-parameterised multi-path routing.

    One flow, no cross traffic, the Fig. 5 lattice (three node-disjoint
    paths of 10 Mb/s each). epsilon = 500 is single shortest-path
    routing; epsilon = 0 spreads packets uniformly over all paths,
    reordering both data and ACKs persistently. The paper runs the
    sweep twice, with 10 ms and 60 ms per-link delays. *)

type point = {
  variant : string;
  epsilon : float;
  delay_s : float;
  mbps : float;
}

(** [grid ()] runs all variants across epsilons and delays.
    Defaults: the paper's epsilons [0; 1; 4; 10; 500], delays
    [0.010; 0.060], the six schemes of {!Variants.fig6}, 60 s runs. *)
val grid :
  ?seed:int ->
  ?warmup:float ->
  ?duration:float ->
  ?epsilons:float list ->
  ?delays:float list ->
  ?variants:Variants.t list ->
  ?jobs:int ->
  unit ->
  point list

(** [to_table ~delay_s points] renders one of the two plots: rows =
    variants, columns = epsilons, cells = Mb/s. *)
val to_table : delay_s:float -> point list -> Stats.Table.t
