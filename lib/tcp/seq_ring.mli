(** Per-sequence rings: the layout both loss-recovery senders use for
    per-segment state (TCP-PR's packet ring, {!Sack_core}'s send times
    and retransmission flags). State for the live span [\[lo, hi)] of
    sequence numbers sits in flat arrays at slot [seq land (cap - 1)],
    [cap] a power of two no smaller than the span.

    Grow before admitting a seq at the top of the span, never after: a
    regrow copies exactly the seqs in [\[lo, hi)], and a seq admitted
    first would alias a live one in the old ring and inherit its slot.
    Slots of seqs below [lo] are stale; callers reset or overwrite a
    slot before reusing it. *)

(** [cap_for ~cap ~span] is [cap] doubled until it is at least
    [span]. *)
val cap_for : cap:int -> span:int -> int

(** [regrow_floats a ~cap ~lo ~hi] is a fresh [cap]-slot array holding
    [a]'s entry for every seq in [\[lo, hi)] at its new slot, zero
    elsewhere. *)
val regrow_floats : floatarray -> cap:int -> lo:int -> hi:int -> floatarray

(** As {!regrow_floats}, for a byte per seq. *)
val regrow_bytes : Bytes.t -> cap:int -> lo:int -> hi:int -> Bytes.t
