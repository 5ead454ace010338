(* Log-bucketed histogram of non-negative integers (nanoseconds, in
   practice) for percentiles of per-call costs.

   Values below 16 get exact buckets; above, each power of two is split
   into 8 equal sub-buckets, so a reported percentile is within 12.5% of
   the true sample. [Obs.Metrics.Histogram] buckets by bit width alone —
   a factor-of-two bucket is too coarse for a p99 compared across runs.
   Recording allocates nothing. *)

let sub_bits = 3

let sub = 1 lsl sub_bits

(* Highest set bit of [max_int] is 61, the last group. *)
let buckets = (62 - sub_bits + 1) * sub

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make buckets 0; n = 0 }

let rec msb v acc = if v < 2 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < sub then if v < 0 then 0 else v
  else begin
    let m = msb v 0 in
    ((m - sub_bits + 1) lsl sub_bits) + ((v lsr (m - sub_bits)) - sub)
  end

(* Smallest value landing in bucket [i], and the bucket's width. *)
let lower_edge i =
  if i < 2 * sub then i
  else begin
    let m = (i lsr sub_bits) + sub_bits - 1 in
    ((i land (sub - 1)) + sub) lsl (m - sub_bits)
  end

let width i =
  if i < 2 * sub then 1 else 1 lsl ((i lsr sub_bits) - 1)

let record t v =
  let i = index v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
  t.n <- t.n + 1

let count t = t.n

let merge_into ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.n <- into.n + t.n

(* [percentile t p] is the midpoint of the bucket holding the sample of
   rank [ceil (p/100 * n)] (nearest-rank), 0 when empty. *)
let percentile t p =
  if t.n = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
    let rec walk i seen =
      let seen = seen + t.counts.(i) in
      if seen >= rank || i = buckets - 1 then i else walk (i + 1) seen
    in
    let i = walk 0 0 in
    float_of_int (lower_edge i) +. (float_of_int (width i - 1) /. 2.)
  end
