(** Ablation studies of TCP-PR's design choices (Section 3).

    These are not paper figures; they isolate the mechanisms the paper
    argues for: halving the cwnd snapshot rather than the current cwnd,
    the memorize list, the Newton approximation of [alpha^(1/cwnd)], and
    the beta safety margin. *)

(** Accuracy of the Newton approximation against
    [exp (log alpha / cwnd)] at the default [alpha] (0.995), for 1, 2
    and 4 iterations and cwnd 1, 2, 8, 64 and 512: rows of
    [(iterations, cwnd, approx, exact, relative error)]. *)
val newton_accuracy : unit -> (int * float * float * float * float) list

(** Throughput over the multi-path lattice (epsilon = 0) with and
    without the cwnd-at-send snapshot:
    [(snapshot_enabled, mbps)] pairs. *)
val snapshot_halving :
  ?seed:int -> ?duration:float -> ?jobs:int -> unit -> (bool * float) list

(** Throughput on a lossy single path with and without the memorize
    list (bursts of drops should halve the window once, not once per
    drop): [(memorize_enabled, mbps)] pairs. *)
val memorize_list :
  ?seed:int -> ?duration:float -> ?jobs:int -> unit -> (bool * float) list

(** TCP-PR multi-path throughput (epsilon = 0) as beta varies over 1,
    1.5, 2, 3, 5 and 10: [(beta, mbps)] rows. A beta near 1 misreads
    path-delay spread as loss; large beta only slows detection of real
    drops. *)
val beta_sweep :
  ?seed:int -> ?duration:float -> ?jobs:int -> unit -> (float * float) list

(** Fairness cost of beta (1, 2, 3, 5, 10) on the dumbbell: [(beta,
    mean normalized TCP-SACK throughput)] — the paper's observation
    that SACK gains only around beta = 1 and beta >= 10. *)
val beta_fairness :
  ?seed:int ->
  ?flows_per_protocol:int ->
  ?jobs:int ->
  unit ->
  (float * float) list
