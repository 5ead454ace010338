(** Mutable sorted set of disjoint inclusive integer intervals, for
    per-packet and per-ACK hot paths: the receiver's out-of-order
    buffer and the SACK sender's scoreboards. Adjacent intervals are
    coalesced, so the representation is canonical. Holds the
    [(first, last)] pairs in parallel arrays; steady-state
    add/drain/remove churn performs zero allocation (the arrays only
    ever double). *)

type t

val create : unit -> t

val is_empty : t -> bool

(** Total number of contained elements, in O(1). *)
val cardinal : t -> int

(** [clear t] removes every element, keeping the arrays. *)
val clear : t -> unit

(** [find t x] is the index of the interval containing [x], or -1.
    Indices are positional and invalidated by any mutation. *)
val find : t -> int -> int

val mem : t -> int -> bool

(** Bounds of the interval at a valid index returned by {!find}. *)
val first : t -> int -> int

val last : t -> int -> int

(** Smallest and largest elements. @raise Not_found if empty. *)
val min_elt : t -> int

val max_elt : t -> int

(** [nth_smallest t k] is the element of rank [k] (0-based) in
    increasing order, found in one walk of the intervals.
    @raise Not_found unless [0 <= k < cardinal t]. *)
val nth_smallest : t -> int -> int

(** [add t x] inserts the single element [x], merging with overlapping
    or adjacent intervals. *)
val add : t -> int -> unit

(** [add_range t ~first ~last] inserts the inclusive range. Requires
    [first <= last]. *)
val add_range : t -> first:int -> last:int -> unit

(** [remove_range t ~first ~last] removes every element of the
    inclusive range. Requires [first <= last]. *)
val remove_range : t -> first:int -> last:int -> unit

(** [remove_below t x] removes every element [< x]. *)
val remove_below : t -> int -> unit

(** The intervals in increasing order (allocates; for tests and
    printing). *)
val to_list : t -> (int * int) list

(** Sortedness, disjointness, coalescing and the cached count; used by
    property tests. *)
val invariant : t -> bool
