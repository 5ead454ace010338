(* Mutable sorted interval set over ints, for the per-packet and
   per-ACK hot paths: the receiver's out-of-order buffer and the SACK
   sender's scoreboards. Disjoint, non-adjacent [(first, last)] pairs
   live in two parallel int arrays, and the element count is kept
   alongside so [cardinal] is O(1). Every operation shifts in place, so
   steady-state churn (add / drain / remove_below per arrival, SACK
   merges and retransmission hand-offs per ACK) allocates nothing. The
   arrays only ever double, and interval counts are small (holes in a
   window), so the O(n) shifts are a few word moves. *)

type t = {
  mutable firsts : int array;
  mutable lasts : int array;
  mutable n : int;
  mutable card : int;
}

let create () =
  { firsts = Array.make 8 0; lasts = Array.make 8 0; n = 0; card = 0 }

let is_empty t = t.n = 0

let cardinal t = t.card

let clear t =
  t.n <- 0;
  t.card <- 0

(* Index of the interval containing [x], or -1. *)
let find t x =
  let idx = ref (-1) in
  let i = ref 0 in
  while !idx < 0 && !i < t.n do
    if x < Array.unsafe_get t.firsts !i then i := t.n (* sorted: done *)
    else if x <= Array.unsafe_get t.lasts !i then idx := !i
    else incr i
  done;
  !idx

let mem t x = find t x >= 0

let first t i = t.firsts.(i)

let last t i = t.lasts.(i)

let min_elt t = if t.n = 0 then raise Not_found else t.firsts.(0)

let max_elt t = if t.n = 0 then raise Not_found else t.lasts.(t.n - 1)

let nth_smallest t k =
  if k < 0 || k >= t.card then raise Not_found;
  let i = ref 0 in
  let k = ref k in
  while !k > Array.unsafe_get t.lasts !i - Array.unsafe_get t.firsts !i do
    k := !k - (Array.unsafe_get t.lasts !i - Array.unsafe_get t.firsts !i + 1);
    incr i
  done;
  t.firsts.(!i) + !k

let grow t =
  let cap = Array.length t.firsts in
  let firsts = Array.make (2 * cap) 0 in
  let lasts = Array.make (2 * cap) 0 in
  Array.blit t.firsts 0 firsts 0 t.n;
  Array.blit t.lasts 0 lasts 0 t.n;
  t.firsts <- firsts;
  t.lasts <- lasts

(* Move intervals [src, n) to start at [dst]. *)
let shift_tail t ~src ~dst =
  Array.blit t.firsts src t.firsts dst (t.n - src);
  Array.blit t.lasts src t.lasts dst (t.n - src);
  t.n <- t.n + dst - src

(* Replace intervals [i, j) by the single [(first, last)]; [j = i]
   inserts it before interval [i]. The tail moves only when the number
   of intervals changes. *)
let splice_one t ~i ~j ~first ~last =
  if j <> i + 1 then begin
    if j = i && t.n = Array.length t.firsts then grow t;
    shift_tail t ~src:j ~dst:(i + 1)
  end;
  t.firsts.(i) <- first;
  t.lasts.(i) <- last

let add_range t ~first ~last =
  assert (first <= last);
  (* [i]: first interval not entirely left of [first - 1]; [j]: first
     interval entirely right of [last + 1]. Everything in [i, j)
     overlaps or abuts the range and merges into it. *)
  let i = ref 0 in
  while !i < t.n && Array.unsafe_get t.lasts !i + 1 < first do
    incr i
  done;
  let i = !i in
  let j = ref i in
  let absorbed = ref 0 in
  while !j < t.n && Array.unsafe_get t.firsts !j <= last + 1 do
    let a = Array.unsafe_get t.firsts !j and b = Array.unsafe_get t.lasts !j in
    absorbed := !absorbed + b - a + 1;
    incr j
  done;
  let j = !j in
  let first = if j > i && t.firsts.(i) < first then t.firsts.(i) else first in
  let last =
    if j > i && t.lasts.(j - 1) > last then t.lasts.(j - 1) else last
  in
  t.card <- t.card - !absorbed + (last - first + 1);
  splice_one t ~i ~j ~first ~last

let add t x = add_range t ~first:x ~last:x

let remove_range t ~first ~last =
  assert (first <= last);
  (* [i, j): the intervals overlapping the range. *)
  let i = ref 0 in
  while !i < t.n && Array.unsafe_get t.lasts !i < first do
    incr i
  done;
  let i = !i in
  let j = ref i in
  let removed = ref 0 in
  while !j < t.n && Array.unsafe_get t.firsts !j <= last do
    let a = Array.unsafe_get t.firsts !j and b = Array.unsafe_get t.lasts !j in
    let a = if a > first then a else first in
    let b = if b < last then b else last in
    removed := !removed + b - a + 1;
    incr j
  done;
  let j = !j in
  if j > i then begin
    (* Keep the fragments outside the range: at most one on each end. *)
    let lo = t.firsts.(i) and hi = t.lasts.(j - 1) in
    t.card <- t.card - !removed;
    if hi > last then begin
      splice_one t ~i ~j ~first:(last + 1) ~last:hi;
      if lo < first then splice_one t ~i ~j:i ~first:lo ~last:(first - 1)
    end
    else if lo < first then splice_one t ~i ~j ~first:lo ~last:(first - 1)
    else shift_tail t ~src:j ~dst:i
  end

let remove_below t x =
  if t.n > 0 && t.firsts.(0) < x then
    remove_range t ~first:t.firsts.(0) ~last:(x - 1)

let to_list t = List.init t.n (fun i -> (t.firsts.(i), t.lasts.(i)))

let invariant t =
  let ok = ref (t.n >= 0 && t.n <= Array.length t.firsts) in
  let card = ref 0 in
  for i = 0 to t.n - 1 do
    if t.firsts.(i) > t.lasts.(i) then ok := false;
    if i > 0 && t.lasts.(i - 1) + 1 >= t.firsts.(i) then ok := false;
    card := !card + t.lasts.(i) - t.firsts.(i) + 1
  done;
  !ok && !card = t.card
