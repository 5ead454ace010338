(* Struct-of-arrays binary min-heap ordered by (time, seq).

   Three parallel arrays (times / seqs / payloads) keep the hot path to
   pure array reads and writes, with no per-entry allocation. Nothing
   is ever cancelled, so every slot below [size] is a pending event and
   the head is always the minimum. *)

type 'a t = {
  mutable times : int array;  (* Time.t nanoseconds *)
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0 }

(* Hole-based sift: slot [i] is a hole; move entries across it until
   (time, seq, payload) finds its position, then write once. Times are
   integer nanoseconds ({!Time.t}), so both the sift comparisons and
   the slot-to-slot moves are plain int operations — no representation
   change on any path can box. (The float-keyed ancestor of this heap
   boxed one 16-byte block per heap level per push/pop whenever a time
   crossed a non-inlined helper; keep helpers off the sift path all the
   same, so a future key change cannot reintroduce that.) *)
let sift_up t i time seq payload =
  let i = ref i in
  let walking = ref true in
  while !walking && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.times.(p) in
    if time < pt || (time = pt && seq < t.seqs.(p)) then begin
      t.times.(!i) <- t.times.(p);
      t.seqs.(!i) <- t.seqs.(p);
      t.payloads.(!i) <- t.payloads.(p);
      i := p
    end
    else walking := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.payloads.(!i) <- payload

let resize_heap t ncap filler =
  let times = Array.make ncap 0 in
  let seqs = Array.make ncap 0 in
  let payloads = Array.make ncap filler in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time ~seq payload =
  let cap = Array.length t.times in
  if t.size = cap then
    if cap = 0 then resize_heap t 64 payload
    else resize_heap t (2 * cap) t.payloads.(0);
  let i = t.size in
  t.size <- i + 1;
  sift_up t i time seq payload

(* Drop the root and restore the heap property. Stale payload slots
   beyond [size] are not cleared: they only ever duplicate a reference
   that is still live in the heap (the entry just sifted down), so
   nothing is retained beyond its lifetime. *)
let remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Hole-based sift-down from the root; the hole's key lives in slot
       [n] (dead, beyond [size]) and moves only slot-to-slot. *)
    let seq = t.seqs.(n) in
    let i = ref 0 in
    let walking = ref true in
    while !walking do
      let l = (2 * !i) + 1 in
      if l >= n then walking := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.times.(r) < t.times.(l)
               || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = t.times.(c) in
        if ct < t.times.(n) || (ct = t.times.(n) && t.seqs.(c) < seq) then begin
          t.times.(!i) <- t.times.(c);
          t.seqs.(!i) <- t.seqs.(c);
          t.payloads.(!i) <- t.payloads.(c);
          i := c
        end
        else walking := false
      end
    done;
    t.times.(!i) <- t.times.(n);
    t.seqs.(!i) <- seq;
    t.payloads.(!i) <- t.payloads.(n)
  end

let is_empty t = t.size = 0

let head_time t = t.times.(0)

let head_seq t = t.seqs.(0)

let pop_head t =
  let payload = t.payloads.(0) in
  remove_top t;
  payload

let length t = t.size
