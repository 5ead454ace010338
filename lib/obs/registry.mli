(** Named metric registry — per-run, sharded, mergeable.

    A registry is per-run state: every simulation (or grid point)
    builds its own, components record into it, and parallel runners
    merge the per-run shards in input order after the parallel map
    returns, which keeps [--jobs N] output byte-identical to
    [--jobs 1]. The accessors are find-or-create: the first call under
    a name allocates the metric, later calls return the same handle, so
    hot code resolves a metric once and records through the handle
    (recording itself never allocates — see {!Metrics}). Requesting a
    name that exists under a different kind raises [Invalid_argument]. *)

type metric =
  | Counter of Metrics.Counter.t
  | Gauge of Metrics.Gauge.t
  | Histogram of Metrics.Histogram.t
  | Value of float ref  (** float-valued level signal, e.g. a utilisation *)

type t

val create : unit -> t

val counter : t -> string -> Metrics.Counter.t

val gauge : t -> string -> Metrics.Gauge.t

val histogram : t -> string -> Metrics.Histogram.t

(** [set_value t name v] sets the float-valued metric [name] to [v]. *)
val set_value : t -> string -> float -> unit

(** [value t name] reads a float-valued metric, 0 if absent. *)
val value : t -> string -> float

val find : t -> string -> metric option

val mem : t -> string -> bool

val length : t -> int

(** All registered names, sorted — the deterministic snapshot order. *)
val names : t -> string list

(** [merge_into ~into t] folds [t]'s metrics into [into]: counters and
    histograms add, gauges and values take the maximum level. Same-name
    metrics of different kinds raise [Invalid_argument]. *)
val merge_into : into:t -> t -> unit

(** [merge_all shards] merges per-domain shards (in list order) into a
    fresh registry.

    Shard contract: a registry is plain mutable state with no internal
    synchronisation, so concurrent shards (the jobs of a
    {!Sim.Domain_pool} map) must each record into their own registry
    and merge only after the domains have been joined — the join is
    the happens-before edge that makes every shard's writes visible to
    the merging domain. Merging in a fixed order (input order, shard
    index order) keeps the merged output byte-identical at any domain
    count; never share one registry between live domains. *)
val merge_all : t list -> t
