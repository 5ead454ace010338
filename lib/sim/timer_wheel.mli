(** Hierarchical timing wheel (Varghese–Lauck) for high-churn timers.

    Three levels of power-of-two slot arrays (256 / 64 / 64 slots, so
    the wheel spans [2^20] ticks of [granularity] nanoseconds each)
    give
    O(1) arm and cancel regardless of how many timers are outstanding —
    the operation the retransmission path performs per packet. Entries
    beyond the top level's horizon wrap modulo the top level and are
    re-filed each revolution, so arbitrarily distant deadlines are
    legal, just not O(1) forever.

    The wheel is the {e second} scheduling substrate of {!Engine},
    merged with the {!Event_queue} binary heap: every entry carries an
    exact [(time, seq)] key where [seq] is the engine's global
    insertion rank, and the wheel surfaces due entries in exact key
    order (slot buckets are only a partition; a per-call mini-heap of
    the currently due bucket restores total order). The merged schedule
    is therefore byte-identical to running everything on the heap.

    Cancellation is lazy: cancelled entries stay linked until their
    slot drains, and the wheel sweeps itself when more than half the
    linked entries are dead, keeping physical usage O(live) under
    per-packet rearm churn. *)

type 'a t

(** [create ~granularity ()] returns an empty wheel whose level-0 slots
    are [granularity] integer nanoseconds ({!Time.t}) wide. Requires
    [granularity > 0]. *)
val create : granularity:Time.t -> unit -> 'a t

val granularity : 'a t -> Time.t

(** [arm t ~time ~seq payload] files a timer with exact key
    [(time, seq)] and returns its entry index. [seq] must be unique
    (the engine's global event rank); [time] may lie below the wheel's
    cursor, in which case the entry is immediately due. *)
val arm : 'a t -> time:Time.t -> seq:int -> 'a -> int

(** [cancel t idx ~seq] cancels the entry at [idx] if it still holds
    armament [seq]; a stale [(idx, seq)] pair (already fired, already
    cancelled, or slot reused) is a no-op. O(1) amortised. *)
val cancel : 'a t -> int -> seq:int -> unit

(** [due t ~up_to] advances the wheel's cursor just far enough to
    decide whether any live entry has [time <= up_to], and returns
    [true] iff one does. After [true], {!head_time} / {!head_seq} read
    the earliest live entry's exact key and {!pop_due} removes it.
    The cursor never advances past the first due entry, so later calls
    with larger [up_to] see everything in order. *)
val due : 'a t -> up_to:Time.t -> bool

(** Key of the earliest due entry; meaningful only after {!due}
    returned [true]. *)
val head_time : 'a t -> Time.t

val head_seq : 'a t -> int

(** Removes and returns the earliest due entry's payload; meaningful
    only after {!due} returned [true]. *)
val pop_due : 'a t -> 'a

(** [head_ready t] is [true] while the earliest due entry is live and
    provably the wheel's global minimum (its tick lies strictly below
    the cursor), re-checked cheaply — no cursor advance, no float
    division. While it holds, {!head_time} / {!head_seq} / {!pop_due}
    may be used directly; a batched dispatcher calls this between pops
    instead of re-running {!due} per event. *)
val head_ready : 'a t -> bool

(** [lower_bound t] is a conservative lower bound on the key time of
    every pending entry ({!Time.never} when none are live): no entry can
    fire strictly before it. Another event source whose head lies
    strictly below the bound may be drained without touching the wheel
    — but arming a new entry can lower the bound, so it must be
    re-read after any arm. *)
val lower_bound : 'a t -> Time.t

(** Live (armed, uncancelled) entries. *)
val live : 'a t -> int

(** Linked entries including cancelled-but-unreclaimed ones. Lazy
    sweeping keeps this below [2 * live] plus a small constant. *)
val physical : 'a t -> int
