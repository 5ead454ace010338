(** Append-only time series of (time, value) samples, for tracing
    quantities like the congestion window. *)

type t

val create : unit -> t

(** [record t ~time value] appends a sample. Times must be
    non-decreasing. *)
val record : t -> time:float -> float -> unit

val length : t -> int

val is_empty : t -> bool

(** Samples in chronological order. *)
val to_list : t -> (float * float) list

(** Most recent sample. *)
val last : t -> (float * float) option
