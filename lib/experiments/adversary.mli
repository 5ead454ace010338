(** Adaptive-adversary experiment: closed-loop epsilon tuning to hold
    a target measured reordering density (reordered singletons /
    arrivals, from the sink's streaming {!Obs.Reorder}) against each
    sender variant on the Fig. 5 multipath lattice.

    The flow is window-limited so queues stay empty and density tracks
    the off-path probability — a smooth monotone function of epsilon.
    An epoch is a minimum-arrival span: the run advances in [epoch_s]
    time slices and the {!Workload.Adversary} controller is fed (and
    the live epsilon-routing samplers retuned in place) only once the
    span has accumulated 1500 arrivals, so every variant's epochs
    carry equally meaningful density estimates regardless of how fast
    its congestion control lets it deliver.
    The verdict comes from a hold phase: the dial freezes at the
    Polyak average of the last conclusive dials and density is
    measured over one span of at least [hold_arrivals] arrivals. *)

type epoch = {
  index : int;
  epsilon : float;
  arrivals : int;
  density : float;
}

type point = {
  variant : string;
  target : float;
  tolerance : float;
  epochs : epoch list;  (** conclusive epochs, oldest first *)
  final_epsilon : float;  (** frozen hold-phase dial *)
  hold_arrivals : int;  (** arrivals actually measured in the hold span *)
  final_density : float;  (** density over the hold span *)
  held : bool;  (** hold density within ±[tolerance] of [target] *)
}

val run :
  ?seed:int ->
  ?epoch_s:float ->
  ?max_epochs:int ->
  ?hold_arrivals:int ->
  ?target:float ->
  ?tolerance:float ->
  variant:string ->
  sender:(module Tcp.Sender.S) ->
  unit ->
  point

(** [sweep ()] runs {!run} over [variants] (default all 13) with
    {!Runner.parallel_map} — input order preserved, so the table is
    byte-identical at any [jobs]. *)
val sweep :
  ?seed:int ->
  ?epoch_s:float ->
  ?max_epochs:int ->
  ?hold_arrivals:int ->
  ?target:float ->
  ?tolerance:float ->
  ?variants:(string * (module Tcp.Sender.S)) list ->
  ?jobs:int ->
  unit ->
  point list

val all_held : point list -> bool

val to_table : point list -> Stats.Table.t
