(* Streaming RFC 4737 reordering metrics over an arrival stream.

   One instance watches one flow's arrivals at the sink and maintains
   the singleton reordering metrics — Type-P-Reordered, reordering
   extent, late-offset density, n-reordering — from integer state only:
   a fixed ring of the last [window] arrival sequence numbers, a
   handful of counters and three {!Metrics.Histogram}s. Observing an
   arrival writes ints and scans at most [window] ring cells, so the
   module rides the data-plane tap without adding GC pressure (the
   16 B/packet bench gate and the test_alloc Gc-delta ceilings cover
   it).

   Definitions (RFC 4737, with segments as the sequence unit):

   - [next_exp] is NextExp: one past the largest sequence number seen.
     An arrival with [seq >= next_exp] is in-order and advances it.
   - An arrival with [seq < next_exp] is LATE. Its late offset
     [next_exp - seq] always feeds the density histogram. If the
     segment is a retransmission it is counted as [late_retx] — the
     sender re-sent it, so it is not evidence of network reordering —
     otherwise it is a reordered singleton ([reordered]).
   - The reordering EXTENT of a reordered arrival is the distance back
     in the arrival stream to the earliest arrival carrying a larger
     sequence number. The scan is bounded by the ring: when the true
     earliest larger arrival may lie beyond the window (nothing larger
     found, or the match sits on the edge of a full ring) the extent is
     reported as [window] and [extent_capped] is incremented.
   - An arrival is N-REORDERED for the largest [n] such that all [n]
     immediately preceding arrivals carry larger sequence numbers
     (capped at [window] likewise); [n >= 1] feeds the n-reordering
     histogram. A reordered arrival whose immediate predecessor is
     smaller has [n = 0] and appears in no n-reordering bucket — the
     RFC's singleton definition.

   Duplicates are evaluated once: callers route repeated sequence
   numbers to {!observe_duplicate}, which only counts them. Each
   receiver owns its flow's detector, so a flow's arrivals are always
   observed by one instance and nothing needs combining. *)

type t = {
  window : int;
  ring : int array;
  mutable ring_len : int;  (* occupancy, grows to [window] then stays *)
  mutable ring_pos : int;  (* next write slot *)
  mutable next_exp : int;
  mutable arrivals : int;
  mutable reordered : int;
  mutable late_retx : int;
  mutable duplicates : int;
  mutable extent_capped : int;
  extent : Metrics.Histogram.t;
  late_offset : Metrics.Histogram.t;
  n_reordering : Metrics.Histogram.t;
}

let default_window = 64

let create ?(window = default_window) () =
  if window < 1 then invalid_arg "Reorder.create: window must be >= 1";
  { window;
    ring = Array.make window 0;
    ring_len = 0;
    ring_pos = 0;
    next_exp = 0;
    arrivals = 0;
    reordered = 0;
    late_retx = 0;
    duplicates = 0;
    extent_capped = 0;
    extent = Metrics.Histogram.create ();
    late_offset = Metrics.Histogram.create ();
    n_reordering = Metrics.Histogram.create () }

(* Ring entry [k] positions back in arrival order (1 = most recent).
   Requires [1 <= k <= ring_len]. *)
let back t k =
  let i = t.ring_pos - k in
  let i = if i < 0 then i + t.window else i in
  Array.unsafe_get t.ring i

let push t seq =
  Array.unsafe_set t.ring t.ring_pos seq;
  t.ring_pos <- (if t.ring_pos + 1 = t.window then 0 else t.ring_pos + 1);
  if t.ring_len < t.window then t.ring_len <- t.ring_len + 1

let observe t ?(retx = false) ~seq () =
  if seq < 0 then invalid_arg "Reorder.observe: negative seq";
  t.arrivals <- t.arrivals + 1;
  if seq >= t.next_exp then t.next_exp <- seq + 1
  else begin
    Metrics.Histogram.record t.late_offset (t.next_exp - seq);
    if retx then t.late_retx <- t.late_retx + 1
    else begin
      t.reordered <- t.reordered + 1;
      (* One backward scan finds both the farthest in-window larger
         arrival (extent) and the run of consecutive larger arrivals
         starting at the most recent one (n-reordering). *)
      let farthest = ref 0 in
      let run = ref 0 in
      let consecutive = ref true in
      for k = 1 to t.ring_len do
        if back t k > seq then begin
          farthest := k;
          if !consecutive then run := k
        end
        else consecutive := false
      done;
      (* [farthest = 0] cannot happen on a complete history: a late
         non-duplicate arrival implies some earlier arrival was larger.
         It (or an edge match on a full ring) means the true earliest
         larger arrival may have aged out — report the window bound. *)
      let capped =
        t.ring_len = t.window && (!farthest = 0 || !farthest = t.window)
      in
      if capped then t.extent_capped <- t.extent_capped + 1;
      let e = if !farthest = 0 then t.window else !farthest in
      Metrics.Histogram.record t.extent e;
      if !run > 0 then Metrics.Histogram.record t.n_reordering !run
    end
  end;
  push t seq

let observe_duplicate t = t.duplicates <- t.duplicates + 1

let window t = t.window

let next_exp t = t.next_exp

let arrivals t = t.arrivals

let reordered t = t.reordered

let late_retx t = t.late_retx

let duplicates t = t.duplicates

let extent_capped t = t.extent_capped

let extent t = t.extent

let late_offset t = t.late_offset

let n_reordering t = t.n_reordering

(* Fraction of arrivals that were reordered singletons — the adaptive
   adversary's controlled variable. Late retransmissions are excluded
   deliberately: they measure the sender's loss recovery, not the
   network's reordering, and would stop the dial from ever reading
   zero on a lossy single path. *)
let density t =
  if t.arrivals = 0 then 0.
  else float_of_int t.reordered /. float_of_int t.arrivals

(* Fraction of arrivals that were late for any reason (reordering or
   retransmission) — lateness of the delivered stream as the
   application sees it. *)
let late_fraction t =
  if t.arrivals = 0 then 0.
  else
    float_of_int (t.reordered + t.late_retx) /. float_of_int t.arrivals

let reset t =
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.next_exp <- 0;
  t.arrivals <- 0;
  t.reordered <- 0;
  t.late_retx <- 0;
  t.duplicates <- 0;
  t.extent_capped <- 0;
  Metrics.Histogram.reset t.extent;
  Metrics.Histogram.reset t.late_offset;
  Metrics.Histogram.reset t.n_reordering
