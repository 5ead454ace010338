(** Deterministic snapshot of a registry.

    Rows are emitted in sorted name order with fixed number formats, so
    two runs that recorded the same events export byte-identical
    snapshots — the property the golden report test and the
    [--jobs]-determinism check rely on. Compound metrics explode into
    scalar rows: a gauge adds [name.peak]; a histogram adds [.count],
    [.mean], [.p50], [.p99] and [.max] (quantiles are bucket upper
    bounds, see {!Metrics.Histogram.quantile_upper}). *)

(** [rows r] is the flat [(name, rendered value)] snapshot of [r]. *)
val rows : Registry.t -> (string * string) list

(** Flat one-line JSON object, keys in sorted row order. *)
val to_json : Registry.t -> string
