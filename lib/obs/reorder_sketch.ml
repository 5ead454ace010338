(* Bounded-memory sketch-based reorder detector (after Zheng, Yu and
   Rexford's data-plane detector): [depth] hash rows of [width] slots,
   each slot holding the largest sequence number any colliding flow has
   shown it, plus a parallel count-min array of detected reorder
   events.

   An arrival [(flow, seq)] is flagged reordered when EVERY row's slot
   for the flow has already seen a strictly larger sequence number —
   collisions only inflate a slot's last-seq, so requiring all rows to
   agree tames false positives the same way count-min's minimum tames
   overcounts. Detection increments the flow's count-min cells;
   [estimate] reads their minimum back.

   Memory is fixed at [2 * depth * width] words regardless of flow
   count — that is the whole point. One sketch sees every arrival it
   judges: a flow's arrivals split across two sketches would each miss
   the reorderings that span the split. *)

type t = {
  depth : int;
  width : int;
  last : int array;  (* depth*width; -1 = slot never written *)
  counts : int array;  (* depth*width count-min of detections *)
  mutable observed : int;
  mutable detected : int;
}

let create () =
  let depth = 2 and width = 512 in
  { depth;
    width;
    last = Array.make (depth * width) (-1);
    counts = Array.make (depth * width) 0;
    observed = 0;
    detected = 0 }

(* Per-row multiply-xor-shift hash: deterministic across runs and
   domains (no [Hashtbl.hash] seeding), integer-only. *)
let slot t row flow =
  let h = (flow + 1) * (0x2545f491 + (row * 0x9e3779b9)) in
  let h = h lxor (h lsr 17) in
  (h land max_int) mod t.width

let observe t ~flow ~seq =
  if seq < 0 then invalid_arg "Reorder_sketch.observe: negative seq";
  t.observed <- t.observed + 1;
  let reordered = ref true in
  for row = 0 to t.depth - 1 do
    let i = (row * t.width) + slot t row flow in
    if seq >= Array.unsafe_get t.last i then reordered := false
  done;
  if !reordered then t.detected <- t.detected + 1;
  for row = 0 to t.depth - 1 do
    let i = (row * t.width) + slot t row flow in
    if !reordered then
      Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
    if seq > Array.unsafe_get t.last i then Array.unsafe_set t.last i seq
  done

let estimate t ~flow =
  let est = ref max_int in
  for row = 0 to t.depth - 1 do
    let c = t.counts.((row * t.width) + slot t row flow) in
    if c < !est then est := c
  done;
  !est

let observed t = t.observed

let detected t = t.detected

let depth t = t.depth

let width t = t.width

(* Fixed state footprint in words: both arrays, whatever the traffic. *)
let memory_words t = 2 * t.depth * t.width

let reset t =
  Array.fill t.last 0 (t.depth * t.width) (-1);
  Array.fill t.counts 0 (t.depth * t.width) 0;
  t.observed <- 0;
  t.detected <- 0
