(** Streaming RFC 4737 reordering metrics over one flow's arrival
    stream, at data-plane cost.

    The instance keeps a fixed ring of the last [window] arrival
    sequence numbers, a handful of counters, and three
    {!Metrics.Histogram}s; observing an arrival writes ints and scans
    at most [window] cells — no per-packet allocation.

    Semantics (segments as the sequence unit):

    - An arrival with [seq >= next_exp] is in-order and advances
      [next_exp] (NextExp: one past the largest sequence seen).
    - An arrival with [seq < next_exp] is late. Its offset
      [next_exp - seq] feeds the {!late_offset} density histogram
      always. A retransmitted late arrival counts as {!late_retx} —
      lateness the sender caused, not network reordering; a
      non-retransmitted one is a reordered singleton ({!reordered})
      and additionally gets a reordering {!extent} (distance back to
      the earliest in-window arrival with a larger sequence, reported
      as [window] with {!extent_capped} incremented when the truth may
      lie beyond the ring) and, when [n >= 1], an {!n_reordering}
      entry ([n] = number of immediately preceding arrivals all
      larger).

    Duplicates must be routed to {!observe_duplicate} so each sequence
    number is evaluated once. *)

type t

val default_window : int

(** [create ?window ()] builds an empty instance. [window] (default
    {!default_window}) bounds both the extent scan and the memory:
    state is one [window]-cell int ring plus histograms. *)
val create : ?window:int -> unit -> t

(** [observe t ?retx ~seq ()] registers a non-duplicate arrival.
    Raises [Invalid_argument] on a negative [seq]. *)
val observe : t -> ?retx:bool -> seq:int -> unit -> unit

(** Count a repeated sequence number without re-evaluating it. *)
val observe_duplicate : t -> unit

val window : t -> int

(** One past the largest sequence number observed. *)
val next_exp : t -> int

(** Non-duplicate arrivals observed. *)
val arrivals : t -> int

(** Reordered singletons: late, non-retransmitted arrivals. *)
val reordered : t -> int

(** Late arrivals that were retransmissions (hole fillers): they feed
    {!late_offset} but are not fresh reordering events. *)
val late_retx : t -> int

val duplicates : t -> int

(** Reordered arrivals whose extent hit the window bound. *)
val extent_capped : t -> int

(** Reordering extent per reordered singleton, capped at [window]. *)
val extent : t -> Metrics.Histogram.t

(** Late offset [next_exp - seq] per late arrival (reordered or
    retransmitted) — the sequence-offset density histogram. *)
val late_offset : t -> Metrics.Histogram.t

(** [n] per n-reordered arrival ([n >= 1]), capped at [window]. *)
val n_reordering : t -> Metrics.Histogram.t

(** Fraction of arrivals that were reordered singletons, 0 when
    empty — the adaptive adversary's controlled variable. Late
    retransmissions are excluded: they measure loss recovery, not
    network reordering. *)
val density : t -> float

(** Fraction of arrivals late for any reason (reordered + late_retx),
    0 when empty. *)
val late_fraction : t -> float

val reset : t -> unit
