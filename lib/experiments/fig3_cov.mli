(** Fig. 3 — coefficient of variation of normalized throughput as the
    loss rate rises.

    The paper raises the loss probability by shrinking the link
    bandwidths ("the variation in loss probability was simulated by
    decreasing the link bandwidth") and plots each protocol's CoV; the
    two protocols' spreads stay comparable. *)

type point = {
  topology : Fig2_fairness.topology;
  bandwidth_scale : float;  (** multiplier applied to link bandwidths *)
  loss_rate_pct : float;  (** measured network-wide drop percentage *)
  cov_pr : float;
  cov_sack : float;
  mean_pr : float;
  mean_sack : float;
}

(** [run topology ~bandwidth_scale ()] measures one point with
    [flows_per_protocol] flows of each protocol (default 8). *)
val run :
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  ?flows_per_protocol:int ->
  Fig2_fairness.topology ->
  bandwidth_scale:float ->
  unit ->
  point

(** [series topology ()] sweeps bandwidth scales (default
    [1.0; 0.7; 0.5; 0.35; 0.25]); smaller scale = higher loss. [jobs]
    parallelises the sweep ({!Runner.parallel_map}) without changing
    the result. *)
val series :
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  ?flows_per_protocol:int ->
  ?scales:float list ->
  ?jobs:int ->
  Fig2_fairness.topology ->
  unit ->
  point list

val to_table : point list -> Stats.Table.t
