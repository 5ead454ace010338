(** Bounded ring over an event stream — keep the last N, dump on
    demand.

    Typical use: [attach] it to a {!Sim.Trace} tap (e.g. a
    [Tcp.Probe.t]) with a small capacity; when a monitor fails, a run
    misbehaves, or a signal arrives, the last [capacity] events are
    still at hand for a readable tail. Noting an event is two stores
    and an increment — no allocation after the first note.

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

(** [iter t f] applies [f] to the retained events, oldest first. *)
val iter : 'a t -> ('a -> unit) -> unit

val clear : 'a t -> unit

(** [pp ~render ppf t] prints one rendered line per retained event
    (oldest first), preceded by a note when events were overwritten. *)
val pp : render:('a -> string) -> Format.formatter -> 'a t -> unit

(** [dump_on_signal ~signal ~render t] installs a handler that prints
    the current tail to [out] (default [stderr]) when [signal] arrives,
    without stopping the run — e.g. [Sys.sigusr1] on a long
    simulation.

    Multi-domain caveat: OCaml delivers signals to the main domain, so
    install this only there, and only for a recorder the main domain
    writes. A recorder fed by a run on a worker domain (a
    {!Sim.Domain_pool} job) must be rendered after that job returns —
    never dumped mid-run from a signal handler racing the worker's
    writes. *)
val dump_on_signal :
  ?out:out_channel -> signal:int -> render:('a -> string) -> 'a t -> unit
