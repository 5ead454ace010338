(* Metric primitives with allocation-free record paths.

   Every type here is a small record of mutable immediate ints, created
   once at component-construction time; recording writes fields and
   array cells only, so an always-on metric costs a handful of integer
   stores per event and zero GC pressure (see DESIGN.md §11). The
   [merge_into] functions lift component metrics into a run's registry
   after the run (Check.Telemetry); all merges are pointwise, so the
   lifted total does not depend on visiting order. *)

module Counter = struct
  type t = { mutable value : int }

  let create () = { value = 0 }

  let incr t = t.value <- t.value + 1

  let add t n = t.value <- t.value + n

  let get t = t.value

  let reset t = t.value <- 0

  let merge_into ~into t = into.value <- into.value + t.value
end

module Gauge = struct
  type t = {
    mutable value : int;
    mutable peak : int;
  }

  let create () = { value = 0; peak = 0 }

  let set t v =
    t.value <- v;
    if v > t.peak then t.peak <- v

  let add t d = set t (t.value + d)

  let get t = t.value

  let peak t = t.peak

  let reset t =
    t.value <- 0;
    t.peak <- 0

  (* A gauge is a level signal, so a merged gauge reports the highest
     level any source saw (for both the current value and the peak). *)
  let merge_into ~into t =
    if t.value > into.value then into.value <- t.value;
    if t.peak > into.peak then into.peak <- t.peak
end

module Histogram = struct
  let bucket_count = 64

  (* Power-of-two buckets: bucket 0 holds every value <= 0, bucket k
     (1 <= k < 63) holds [2^(k-1), 2^k - 1], and the last bucket is
     open-ended. The bucket of a value is its bit width, so [index]
     is a shift loop — no floats, no allocation. *)
  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;  (* max_int while empty *)
    mutable max_v : int;  (* min_int while empty *)
    mutable underflow : int;  (* negative inputs, clamped to 0 *)
  }

  let create () =
    { counts = Array.make bucket_count 0;
      count = 0;
      sum = 0;
      min_v = max_int;
      max_v = min_int;
      underflow = 0 }

  let index v =
    if v <= 0 then 0
    else begin
      let rec width v k = if v = 0 then k else width (v lsr 1) (k + 1) in
      let k = width v 0 in
      if k >= bucket_count then bucket_count - 1 else k
    end

  let lower_edge k = if k <= 0 then min_int else 1 lsl (k - 1)

  let upper_edge k =
    if k <= 0 then 0
    else if k >= bucket_count - 1 then max_int
    else (1 lsl k) - 1

  (* Negative inputs are clamped to 0 (the floor of the underflow
     bucket) before touching the aggregates: an unclamped [sum] could
     go negative while every bucket-derived statistic stayed
     non-negative, silently breaking [mean] against the
     quantile-bracketing invariant. The clamp count stays observable
     through [underflow]. *)
  let record t v =
    let v =
      if v >= 0 then v
      else begin
        t.underflow <- t.underflow + 1;
        0
      end
    in
    let k = index v in
    Array.unsafe_set t.counts k (Array.unsafe_get t.counts k + 1);
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count

  let sum t = t.sum

  let underflow t = t.underflow

  let min_value t = if t.count = 0 then 0 else t.min_v

  let max_value t = if t.count = 0 then 0 else t.max_v

  let mean t =
    if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

  let bucket t k =
    if k < 0 || k >= bucket_count then
      invalid_arg "Histogram.bucket: index out of range";
    t.counts.(k)

  let buckets t = Array.copy t.counts

  (* Bucket bracketing the nearest-rank q-quantile: the recorded value
     of rank ceil(q * count) lies within the returned closed interval,
     because bucket order equals value order. *)
  let quantile t q =
    if t.count = 0 then None
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
      let rec find k acc =
        let acc = acc + t.counts.(k) in
        if acc >= rank then k else find (k + 1) acc
      in
      let k = find 0 0 in
      Some (lower_edge k, upper_edge k)
    end

  (* Tightest upper bound we can state for the q-quantile: the bucket's
     upper edge, capped by the largest value actually recorded (which
     tames the open-ended last bucket). *)
  let quantile_upper t q =
    match quantile t q with
    | None -> None
    | Some (_, upper) -> Some (min upper (max_value t))

  let merge_into ~into t =
    for k = 0 to bucket_count - 1 do
      into.counts.(k) <- into.counts.(k) + t.counts.(k)
    done;
    into.count <- into.count + t.count;
    into.sum <- into.sum + t.sum;
    into.underflow <- into.underflow + t.underflow;
    if t.min_v < into.min_v then into.min_v <- t.min_v;
    if t.max_v > into.max_v then into.max_v <- t.max_v

  let merge a b =
    let t = create () in
    merge_into ~into:t a;
    merge_into ~into:t b;
    t

  let reset t =
    Array.fill t.counts 0 bucket_count 0;
    t.count <- 0;
    t.sum <- 0;
    t.min_v <- max_int;
    t.max_v <- min_int;
    t.underflow <- 0
end
