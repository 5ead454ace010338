(** Bounded ring over an event stream — keep the last N.

    Typical use: [attach] it to a {!Sim.Trace} tap (e.g. a
    [Tcp.Probe.t]) with a small capacity; when a monitor fails or a
    report asks for a tail, the last [capacity] events are still at
    hand. The renderer is the caller's: the oracle and [report --tail]
    print [List.map Tcp.Probe.to_line (to_list r)]. Noting an event is
    two stores and an increment — no allocation after the first note.

    Events are retained by reference: feed it values that stay valid
    after the emitting callback returns. Do NOT attach it to a tap that
    reuses one mutable record per emission (such as [Net.Link.events]);
    every retained slot would alias the same record. *)

type 'a t

(** [create ~capacity] is an empty recorder retaining the last
    [capacity] events ([capacity >= 1]). *)
val create : capacity:int -> 'a t

(** [note t x] appends [x], overwriting the oldest retained event once
    full. *)
val note : 'a t -> 'a -> unit

(** [attach ?capacity tap] subscribes a fresh recorder to [tap]
    (default capacity 64). *)
val attach : ?capacity:int -> 'a Sim.Trace.tap -> 'a t

val capacity : 'a t -> int

(** Events ever noted, including overwritten ones. *)
val total : 'a t -> int

(** Events currently retained. *)
val length : 'a t -> int

(** Events lost to overwriting: [max 0 (total - capacity)]. *)
val overwritten : 'a t -> int

(** Retained events, oldest first. *)
val to_list : 'a t -> 'a list
