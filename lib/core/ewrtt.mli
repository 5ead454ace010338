(** TCP-PR's round-trip-time envelope estimator (paper eq. (1)).

    [ewrtt] is an exponentially weighted *envelope* of observed RTTs:
    on each acknowledgement it becomes
    [max(alpha^(1/cwnd) * ewrtt, sample)]. Raising [alpha] to [1/cwnd]
    makes the decay rate exactly [alpha] per round-trip regardless of
    window size, so [alpha] is a memory factor in units of RTTs. Unlike
    a smoothed mean, a single large RTT dominates the estimate for a
    while — which is what makes [mxrtt = beta * ewrtt] a safe drop
    threshold under reordering.

    Following the paper's footnote 5, [alpha^(1/cwnd)] is approximated
    by Newton iterations on [x^cwnd = alpha] starting from [x = 1] (the
    Linux implementation uses two); an exact mode is provided for the
    ablation benchmark. *)

type t

val create : Tcp.Config.t -> t

(** [reset t config] returns [t] to the state [create config] builds:
    [config]'s alpha and beta, the 1 s initial envelope, no sample. *)
val reset : t -> Tcp.Config.t -> unit

(** [decay_factor t ~cwnd] is the per-ACK decay [alpha^(1/cwnd)],
    computed with two Newton iterations. *)
val decay_factor : t -> cwnd:float -> float

(** [exact_decay_factor t ~cwnd] computes [alpha^(1/cwnd)] via
    [exp (log alpha / cwnd)], for accuracy comparisons. *)
val exact_decay_factor : t -> cwnd:float -> float

(** [on_sample t ~cwnd ~sample] folds in the RTT of a newly
    acknowledged packet. Requires [sample >= 0.]. *)
val on_sample : t -> cwnd:float -> sample:float -> unit

(** Current envelope estimate. *)
val ewrtt : t -> float

(** Current drop threshold [beta * ewrtt]. *)
val mxrtt : t -> float

(** [newton ~alpha ~cwnd ~iterations] is the bare approximation of
    [alpha^(1/cwnd)], exposed for tests and benchmarks. *)
val newton : alpha:float -> cwnd:float -> iterations:int -> float
