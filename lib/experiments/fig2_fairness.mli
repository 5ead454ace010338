(** Fig. 2 — fairness of TCP-PR competing with TCP-SACK.

    [k] TCP-PR flows and [k] TCP-SACK flows share one source and one
    destination over the dumbbell (left plot) or the parking lot with
    cross traffic (right plot). The paper reports the normalized
    throughput of every flow and each protocol's mean; both means sit
    near 1 across 4..64 total flows. *)

type topology =
  | Dumbbell
  | Parking_lot

val topology_name : topology -> string

type point = {
  topology : topology;
  flows_per_protocol : int;
  pr_normalized : float list;  (** T_i of each TCP-PR flow *)
  sack_normalized : float list;  (** T_i of each TCP-SACK flow *)
  mean_pr : float;
  mean_sack : float;
}

(** [run topology ~flows_per_protocol ()] produces one x-axis point. *)
val run :
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  topology ->
  flows_per_protocol:int ->
  unit ->
  point

(** [series topology ()] sweeps the flow counts (default
    [1; 2; 4; 8; 16; 32] per protocol, i.e. 2..64 total flows). [jobs]
    runs the points on that many domains ({!Runner.parallel_map});
    the result is identical to the sequential default. *)
val series :
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  ?counts:int list ->
  ?jobs:int ->
  topology ->
  unit ->
  point list

(** Render the series the way the paper's plot is read: one row per
    flow count, the two protocol means side by side. *)
val to_table : point list -> Stats.Table.t
