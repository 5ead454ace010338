(** Priority queue of timestamped one-shot events.

    Events are ordered by [(time, seq)]: time first, then the rank the
    caller supplies, so ties break deterministically. Implemented as a
    struct-of-arrays binary heap — push and pop never allocate per
    entry and never hash. Times are {!Time.t} integer nanoseconds, so
    heap keys compare and move without boxing. There is no
    cancellation: every pushed event is popped. *)

type 'a t

(** [create ()] returns an empty queue. *)
val create : unit -> 'a t

(** [push t ~time ~seq payload] inserts an event with rank [seq]. The
    caller draws ranks (see {!Engine}, which layers a second substrate
    over this one and draws both substrates' ranks from one counter);
    distinct events must carry distinct ranks. *)
val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

(** [is_empty t] is [length t = 0]. *)
val is_empty : 'a t -> bool

(** Allocation-free head primitives, for a caller that merges this
    queue against another substrate and reads the head key
    field-by-field instead of materialising options or tuples. Each is
    meaningful only while the queue is not empty. *)

(** Time of the earliest event. *)
val head_time : 'a t -> Time.t

(** Rank of the earliest event. *)
val head_seq : 'a t -> int

(** Removes and returns the earliest event's payload. *)
val pop_head : 'a t -> 'a

(** [length t] counts pending events. *)
val length : 'a t -> int
