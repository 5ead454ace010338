(** Named metric registry — one per run.

    A registry is per-run state: every simulation (or grid point)
    builds its own and components record into it, or are lifted into
    it by a collector ([Check.Telemetry]) after the run. Parallel
    sweeps never share or combine registries: each job renders its own,
    and results are assembled in input order, which keeps [--jobs N]
    output byte-identical to [--jobs 1]. The accessors are
    find-or-create: the first call under a name allocates the metric,
    later calls return the same handle, so hot code resolves a metric
    once and records through the handle (recording itself never
    allocates — see {!Metrics}). Requesting a name that exists under a
    different kind raises [Invalid_argument]. A registry has no
    internal synchronisation: never share one between live domains. *)

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
