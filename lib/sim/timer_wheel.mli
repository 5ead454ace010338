(** Hierarchical timing wheel (Varghese–Lauck): the scheduling
    substrate of {!Engine}.

    Three levels of power-of-two slot arrays (256 / 64 / 64 slots, so
    the wheel spans [2^20] ticks of [granularity] nanoseconds each)
    give O(1) arm and cancel regardless of how many entries are
    outstanding — the operation the retransmission path performs per
    packet. Entries beyond the top level's horizon wrap modulo the top
    level and are re-filed each revolution, so arbitrarily distant
    deadlines are legal, just not O(1) forever.

    Every engine event is an entry: one-shot closures and timer-cell
    firings alike. Each entry carries an exact [(time, seq)] key where
    [seq] is the engine's global insertion rank, and the wheel surfaces
    due entries in exact key order (slot buckets are only a partition;
    a small heap of the drained slots' entries restores total order).
    The pop order is therefore the order of one heap keyed on
    [(time, seq)].

    Cancellation is lazy: cancelled entries stay linked until their
    slot drains, and the wheel sweeps itself when more than half the
    linked entries are dead, keeping physical usage O(live) under
    per-packet rearm churn. An entry that fires or is reclaimed drops
    its payload, so the wheel keeps no finished handler reachable. *)

type t

(** [create ~granularity ()] returns an empty wheel whose level-0 slots
    are [granularity] integer nanoseconds ({!Time.t}) wide. Requires
    [granularity > 0]. *)
val create : granularity:Time.t -> unit -> t

(** [arm t ~time ~seq f] files [f] with exact key [(time, seq)] and
    returns its entry index. [seq] must be unique (the engine's global
    event rank); [time] may lie below the wheel's cursor, in which case
    the entry is immediately due. *)
val arm : t -> time:Time.t -> seq:int -> (unit -> unit) -> int

(** [cancel t idx ~seq] cancels the entry at [idx] if it still holds
    armament [seq]; a stale [(idx, seq)] pair (already fired, already
    cancelled, or slot reused) is a no-op. O(1) amortised. *)
val cancel : t -> int -> seq:int -> unit

(** [due t ~up_to] advances the wheel's cursor just far enough to
    decide whether any live entry has [time <= up_to], and returns
    [true] iff one does. After [true], {!head_time} / {!head_seq} read
    the earliest live entry's exact key and {!pop_due} removes it.
    The cursor never advances past the first due entry, so later calls
    with larger [up_to] see everything in order. *)
val due : t -> up_to:Time.t -> bool

(** Key of the earliest due entry; meaningful only after {!due}
    returned [true]. *)
val head_time : t -> Time.t

val head_seq : t -> int

(** Removes the earliest due entry and returns its closure; meaningful
    only after {!due} returned [true]. *)
val pop_due : t -> unit -> unit

(** Live (armed, uncancelled) entries. *)
val live : t -> int

(** Linked entries including cancelled-but-unreclaimed ones. Lazy
    sweeping keeps this below [2 * live] plus a small constant. *)
val physical : t -> int
