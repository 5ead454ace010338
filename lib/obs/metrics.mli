(** Metric primitives with allocation-free record paths.

    Counters, gauges and fixed-bucket log-scale histograms are small
    records of mutable immediate ints, created once when a component is
    built; recording writes integer fields and array cells only, so an
    always-on metric adds no GC pressure to the hot path. After a run,
    collectors ([Check.Telemetry]) lift component metrics into the
    run's registry with [merge_into] — e.g. every link's occupancy
    histogram into one [net.queue.occupancy]. Every merge is pointwise,
    associative and commutative, so the lifted total does not depend on
    the order the components are visited in. *)

(** Monotone event count. Merge adds. *)
module Counter : sig
  type t

  val create : unit -> t

  val incr : t -> unit

  val add : t -> int -> unit

  val get : t -> int

  val reset : t -> unit

  val merge_into : into:t -> t -> unit
end

(** Level signal with peak tracking. Merge takes the maximum of both
    the current value and the peak: a merged gauge reports the highest
    level any source saw. *)
module Gauge : sig
  type t

  val create : unit -> t

  (** [set t v] records the new level and updates the peak. *)
  val set : t -> int -> unit

  (** [add t d] is [set t (get t + d)]. *)
  val add : t -> int -> unit

  val get : t -> int

  val peak : t -> int

  val reset : t -> unit

  val merge_into : into:t -> t -> unit
end

(** Fixed-bucket log-scale histogram of ints, int-backed.

    Bucket 0 holds every value [<= 0]; bucket [k] ([1 <= k < 63])
    holds [2^(k-1) .. 2^k - 1]; the last bucket is open-ended. The
    bucket of a value is its bit width, so recording is a shift loop
    plus an array increment — no floats, no allocation. *)
module Histogram : sig
  type t

  val bucket_count : int

  val create : unit -> t

  (** [record t v] records [v]. Negative values are clamped to 0 (the
      floor of the underflow bucket) before entering the aggregates, so
      [sum], [min_value] and [mean] stay consistent with the
      bucket-derived statistics; the number of clamped inputs remains
      observable through {!underflow}. *)
  val record : t -> int -> unit

  (** Number of recorded values. *)
  val count : t -> int

  (** Sum of recorded values (after clamping). *)
  val sum : t -> int

  (** Number of negative inputs clamped to 0 by {!record}. Merge
      adds. *)
  val underflow : t -> int

  (** Smallest recorded value (after clamping, so never negative), 0
      when empty. *)
  val min_value : t -> int

  (** Largest recorded value, 0 when empty. *)
  val max_value : t -> int

  val mean : t -> float

  (** Inclusive edges of bucket [k]. [lower_edge 0] is [min_int];
      [upper_edge (bucket_count - 1)] is [max_int]. *)
  val lower_edge : int -> int

  val upper_edge : int -> int

  (** Bucket index a value lands in. *)
  val index : int -> int

  (** Occupancy of bucket [k]. *)
  val bucket : t -> int -> int

  (** Copy of all bucket occupancies. *)
  val buckets : t -> int array

  (** [quantile t q] is the [(lower, upper)] edge pair of the bucket
      containing the nearest-rank q-quantile (rank [ceil (q * count)]),
      [None] when empty. The recorded value of that rank lies within
      the returned closed interval. *)
  val quantile : t -> float -> (int * int) option

  (** [quantile_upper t q] is the bucket's upper edge capped by the
      largest recorded value — the tightest upper bound this histogram
      can state for the q-quantile. *)
  val quantile_upper : t -> float -> int option

  (** Pointwise merges: associative and commutative. *)
  val merge_into : into:t -> t -> unit

  val merge : t -> t -> t

  val reset : t -> unit
end
