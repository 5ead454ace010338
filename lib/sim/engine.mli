(** Discrete-event simulation engine.

    The engine owns the simulated clock and one scheduling substrate, a
    hierarchical {!Timer_wheel}, on which every event rides: one-shot
    events (packet transmissions, packet arrivals, workload arrivals)
    and recurring timers (retransmission and delayed-ACK timers, which
    are armed and cancelled per packet) alike. Every event carries a
    [(time, rank)] key, ranks come from one engine-global counter, and
    the run loop executes events in key order, so ties run in
    scheduling order. The clock never moves backwards. While anything
    is pending, the wheel's cursor walks to the next event in
    [timer_granularity] ticks, jumping straight over empty ticks of its
    finest level (an occupancy bitmap finds the next occupied slot), so
    an idle gap costs a few integer steps, not events.

    Every event is a [unit -> unit] closure. A one-shot event
    ([schedule_at] / [schedule_after] and their [_ns] forms) runs once
    and cannot be cancelled. Hot paths build their closure once and
    schedule the same value again and again (a link's
    transmission-complete closure, one arrival closure per pooled
    cell), so scheduling allocates nothing.

    Recurring and cancellable timers use {!timer} cells: allocate once
    with [make_timer], then [arm_timer] / [cancel_timer] freely —
    rearming from the timer's own handler is safe because the cell is
    cleared before the handler runs. Each cell builds its firing
    closure once, in [make_timer].

    Time is {!Time.t} integer nanoseconds internally. The [_ns]
    functions take {!Time.t} (the allocation-free hot path); the
    float-seconds forms convert at the boundary. Mixing the two is
    safe — the float forms are definitionally
    [Time.of_sec]/[Time.to_sec] compositions of the ns forms. *)

type t

(** [create ()] returns an engine with the clock at time 0.
    [timer_granularity] is the wheel's slot width in seconds (default
    1e-3; non-positive values fall back to the default). *)
val create : ?timer_granularity:float -> unit -> t

(** [now t] is the current simulated time, in seconds. *)
val now : t -> float

(** [now_ns t] is the current simulated time in nanoseconds. The
    boxing-free clock read for hot paths. *)
val now_ns : t -> Time.t

(** [schedule_at_ns t ~time f] runs [f ()] when the clock reaches
    [time]. Scheduling in the past raises [Invalid_argument]. *)
val schedule_at_ns : t -> time:Time.t -> (unit -> unit) -> unit

(** [schedule_after_ns t ~delay f] runs [f ()] after [delay]
    nanoseconds. Requires [delay >= 0]. *)
val schedule_after_ns : t -> delay:Time.t -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] when the clock reaches [time]
    seconds. Scheduling in the past raises [Invalid_argument]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] runs [f ()] after [delay] seconds.
    Requires [delay >= 0.]. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> unit

(** {2 Recurring timer cells} *)

(** A reusable timer slot: at most one pending armament at a time,
    running a fixed handler. Arm/rearm/cancel are O(1) on the wheel and
    allocation-free after [make_timer]. *)
type timer

(** [make_timer t f] allocates an unarmed cell that runs [f ()] each
    time it fires. *)
val make_timer : t -> (unit -> unit) -> timer

(** [arm_timer t tm ~delay] schedules [tm] to fire after [delay]
    seconds, first cancelling any pending armament of the same cell.
    Requires [delay >= 0.]. *)
val arm_timer : t -> timer -> delay:float -> unit

(** ns-native [arm_timer]: the allocation-free rearm path (RTO and
    delayed-ACK churn). Requires [delay >= 0]. *)
val arm_timer_ns : t -> timer -> delay:Time.t -> unit

(** [cancel_timer t tm] disarms [tm]; a no-op if unarmed. *)
val cancel_timer : t -> timer -> unit

(** [timer_armed tm] is [true] while an armament is pending. The cell
    reads as unarmed inside its own fire handler, so handlers can
    rearm unconditionally. *)
val timer_armed : timer -> bool

(** {2 End-of-instant hooks} *)

(** [at_instant_end t f] runs [f ()] after every event due at the
    current instant has executed, before the clock advances past it —
    the batching hook: a connection receiving several same-instant ACKs
    registers one flush and drains its action buffer once. [f] may
    schedule events (at the instant or later) and may re-register
    itself or other hooks; hooks run in registration order and each
    registration fires exactly once. Outside [run], pending hooks fire
    before the clock first advances. *)
val at_instant_end : t -> (unit -> unit) -> unit

(** {2 Running} *)

(** [run t ~until] executes events until none is due by [until], then
    sets the clock to [until]. *)
val run : t -> until:float -> unit

(** ns-native [run]. *)
val run_ns : t -> until:Time.t -> unit

(** [run_to_completion t] executes events until none is left. *)
val run_to_completion : t -> unit

(** {2 Scheduler counters} (monotone over the engine's lifetime) *)

val events_executed : t -> int

val timer_arms : t -> int

val timer_cancels : t -> int

val timer_fires : t -> int

