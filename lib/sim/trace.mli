(** Typed event taps: the simulator's one instrumentation substrate.

    A component owns an ['a tap], listeners subscribe with [on], and the
    component publishes with [emit]. An unarmed tap (no listeners) makes
    [emit] a no-op, so instrumented code can guard any event-construction
    cost behind [armed] and stay free when nobody is watching.
    [Net.Link.events] and [Tcp.Probe] are taps: the invariant monitors,
    the golden digests and [Obs.Flight_recorder] subscribe to
    [Tcp.Probe], and the benchmark's queue-wait probe to
    [Net.Link.events]. *)

(** A typed event tap: a broadcast point for ['a]-valued events. *)
type 'a tap

(** [tap ()] is a fresh tap with no listeners. *)
val tap : unit -> 'a tap

(** [on t handler] subscribes [handler] to every subsequent [emit].
    Handlers run in subscription order. *)
val on : 'a tap -> ('a -> unit) -> unit

(** [armed t] is true when at least one handler is subscribed. Emitters
    should skip building expensive events when unarmed. *)
val armed : 'a tap -> bool

(** [emit t event] delivers [event] to every subscribed handler. *)
val emit : 'a tap -> 'a -> unit
