(** Bounded-memory sketch-based reorder detector (after the data-plane
    detectors of Zheng, Yu and Rexford).

    [depth] hash rows of [width] slots track, per slot, the largest
    sequence number any colliding flow has shown it; a parallel
    count-min array accumulates detected reorder events. An arrival is
    flagged reordered when every row's slot has already seen a strictly
    larger sequence — collisions only inflate last-seq values, so
    unanimity across rows bounds false positives, and {!estimate}
    reads the count-min minimum back per flow.

    Two rows of 512 slots: state is a fixed [2 * depth * width] = 2048
    words whatever the flow count. Feed all of a flow's arrivals to one
    sketch: a flow split across two sketches would miss the reorderings
    that span the split. *)

type t

val create : unit -> t

(** [observe t ~flow ~seq] feeds one data arrival. Integer stores
    only — no allocation. Raises [Invalid_argument] on negative
    [seq]. *)
val observe : t -> flow:int -> seq:int -> unit

(** Count-min estimate of reorder events detected for [flow] (an upper
    bound on this sketch's own detections for the flow). *)
val estimate : t -> flow:int -> int

(** Arrivals observed. *)
val observed : t -> int

(** Arrivals flagged reordered. *)
val detected : t -> int

val depth : t -> int

val width : t -> int

(** Fixed state footprint in words. *)
val memory_words : t -> int

val reset : t -> unit
