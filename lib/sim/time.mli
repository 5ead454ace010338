(** Integer-nanosecond simulated time.

    The scheduling core ({!Engine} and {!Timer_wheel}, its one
    scheduling substrate) keeps time as [int] nanoseconds so clock
    reads, deadline arithmetic and key comparisons never box a float;
    seconds (floats) are the boundary representation for
    configuration, traces, probes and statistics. See DESIGN.md §15
    for the range/overflow analysis. *)

type t = int

(** Nanoseconds per second ([1_000_000_000]). *)
val ns_per_sec : int

(** The infinity sentinel ([max_int]): later than any schedulable
    time. [to_sec never = infinity] and [of_sec infinity = never]. *)
val never : t

(** [of_sec s] is [s] seconds rounded to the nearest nanosecond.
    Values at or beyond ~2^61 ns (including [infinity]) map to
    [never]. *)
val of_sec : float -> t

(** Floats at or above this many seconds (~2^61 ns) convert to
    [never]. Exposed for callers that replicate a conversion inline to
    keep a float from crossing a non-inlined module boundary (a boxed
    argument per call); such call sites must use the same horizon. *)
val horizon_sec : float

(** [of_sec_delay s] is [s] seconds rounded *up* to the next
    nanosecond — the conversion for relative delays. Re-arming a timer
    with the remaining time to a float deadline must always make
    progress; round-to-nearest would turn a sub-nanosecond remainder
    into a 0 ns delay and livelock the simulation at one instant.
    Exact for delays on the ns grid. *)
val of_sec_delay : float -> t

(** [to_sec ns] is [ns] in seconds. Exact inverse of [of_sec] for all
    |ns| < 2^50 (~13 days of simulated time). *)
val to_sec : t -> float

(** Saturating addition: [add a never = never] and finite sums clamp at
    [never] instead of overflowing. Operands must be non-negative. *)
val add : t -> t -> t
