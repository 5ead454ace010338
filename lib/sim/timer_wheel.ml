(* Hierarchical timing wheel, struct-of-arrays: the engine's one
   scheduling substrate.

   Entries live in parallel arrays (times / seqs / payloads / nexts)
   and are referenced by index; freed indices are chained through
   [nexts] into a free list, so steady-state arm/cancel churn performs
   zero allocation. Freeing an entry overwrites its payload with
   [nothing], so a handler that has run (and whatever it captures) is
   not kept reachable by the wheel. Each wheel level is an array of
   slot heads chaining entries through [nexts]; level-0 slots are one
   tick (granularity integer nanoseconds, {!Time.t}) wide, level 1
   covers 256 ticks per slot, level 2 covers 256*64. Arming picks the
   coarsest level whose window contains the deadline — O(1) — and
   cascading re-files a slot's chain one level down when the cursor
   enters its window.

   Slots only bucket entries by deadline window; total (time, seq)
   order is restored by a small binary heap (the "due" heap) holding
   the entries of already-drained slots. Because level-0 slots are one
   tick wide, the due heap holds at most one tick's worth of events
   plus late-armed entries, so its O(log n) is over a tiny n. A
   256-bit occupancy map of the level-0 slots lets the cursor jump
   from one occupied slot (or window boundary) to the next instead of
   stepping through empty ticks.

   Cancellation clears the entry's liveness bit and leaves it linked;
   the (time, seq) key is left intact so the due heap's invariant
   survives cancellation. When more than half the linked entries are
   dead, a sweep relinks the survivors and frees the rest, keeping
   physical usage O(live). *)

(* Level geometry: 256 / 64 / 64 slots (bits 8 / 6 / 6). *)
let l0_bits = 8

let l1_bits = 6

let l0_slots = 1 lsl l0_bits (* 256 *)

let l1_slots = 1 lsl l1_bits (* 64 *)

let l2_slots = 64

let l0_mask = l0_slots - 1

let l1_mask = l1_slots - 1

let l2_mask = l2_slots - 1

let span01 = l0_slots * l1_slots (* ticks covered by levels 0+1 *)

let nothing () = ()

type t = {
  granularity : int;  (* Time.t nanoseconds per tick *)
  (* Entry storage. [seqs.(i)] is the entry's tie-break rank; [nexts]
     doubles as the slot-chain link and the free-list link. *)
  mutable times : int array;  (* Time.t nanoseconds *)
  mutable seqs : int array;
  mutable ticks : int array; (* tick_of times.(i), fixed at arm time *)
  mutable payloads : (unit -> unit) array; (* [nothing] when free *)
  mutable nexts : int array;
  mutable alive : Bytes.t; (* bit per entry: armed and not cancelled *)
  mutable allocated : int; (* entry slots ever initialised *)
  mutable free_head : int;
  mutable live : int;
  mutable dead : int; (* cancelled but still linked *)
  slots0 : int array;
  (* Occupancy of [slots0], one bit per slot in eight 32-bit words: set
     while the slot's chain is non-empty (dead entries included), so
     [due] can jump the cursor over empty ticks. *)
  occ0 : int array;
  slots1 : int array;
  slots2 : int array;
  mutable tick : int; (* cursor: slot [tick land l0_mask] is next *)
  (* Due heap: entry indices ordered by (times.(i), seqs.(i)). *)
  mutable due : int array;
  mutable due_size : int;
}

let create ~granularity () =
  if granularity <= 0 then
    invalid_arg "Timer_wheel.create: granularity must be positive";
  { granularity;
    times = [||];
    seqs = [||];
    ticks = [||];
    payloads = [||];
    nexts = [||];
    alive = Bytes.make 8 '\000';
    allocated = 0;
    free_head = -1;
    live = 0;
    dead = 0;
    slots0 = Array.make l0_slots (-1);
    occ0 = Array.make (l0_slots / 32) 0;
    slots1 = Array.make l1_slots (-1);
    slots2 = Array.make l2_slots (-1);
    tick = 0;
    (* Persistent scratch: the due heap lives for the wheel's lifetime
       and only ever doubles, up to the busiest tick's entry count, so
       steady-state advance/drain churn never rebuilds it. *)
    due = Array.make 64 (-1);
    due_size = 0 }

let live t = t.live

let physical t = t.live + t.dead

(* --- liveness bitmap ------------------------------------------------ *)

let is_alive t i =
  Char.code (Bytes.unsafe_get t.alive (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_alive t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t.alive j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.alive j) lor (1 lsl (i land 7))))

let clear_alive t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t.alive j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.alive j) land lnot (1 lsl (i land 7))))

(* --- entry allocation ----------------------------------------------- *)

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let times = Array.make ncap 0 in
  let seqs = Array.make ncap (-1) in
  let ticks = Array.make ncap 0 in
  let payloads = Array.make ncap nothing in
  let nexts = Array.make ncap (-1) in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.ticks 0 ticks 0 cap;
  Array.blit t.payloads 0 payloads 0 cap;
  Array.blit t.nexts 0 nexts 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.ticks <- ticks;
  t.payloads <- payloads;
  t.nexts <- nexts;
  while 8 * Bytes.length t.alive < ncap do
    let bigger = Bytes.make (2 * Bytes.length t.alive) '\000' in
    Bytes.blit t.alive 0 bigger 0 (Bytes.length t.alive);
    t.alive <- bigger
  done

let alloc_entry t =
  if t.free_head >= 0 then begin
    let i = t.free_head in
    t.free_head <- t.nexts.(i);
    i
  end
  else begin
    if t.allocated = Array.length t.times then grow t;
    let i = t.allocated in
    t.allocated <- t.allocated + 1;
    i
  end

let free_entry t i =
  t.seqs.(i) <- -1;
  t.payloads.(i) <- nothing;
  t.nexts.(i) <- t.free_head;
  t.free_head <- i

(* --- due heap -------------------------------------------------------- *)

let due_less t a b =
  t.times.(a) < t.times.(b)
  || (t.times.(a) = t.times.(b) && t.seqs.(a) < t.seqs.(b))

let due_push t i =
  let cap = Array.length t.due in
  if t.due_size = cap then begin
    let bigger = Array.make (max 16 (2 * cap)) (-1) in
    Array.blit t.due 0 bigger 0 cap;
    t.due <- bigger
  end;
  let pos = ref t.due_size in
  t.due_size <- t.due_size + 1;
  t.due.(!pos) <- i;
  let continue = ref true in
  while !continue && !pos > 0 do
    let p = (!pos - 1) / 2 in
    if due_less t t.due.(!pos) t.due.(p) then begin
      let tmp = t.due.(p) in
      t.due.(p) <- t.due.(!pos);
      t.due.(!pos) <- tmp;
      pos := p
    end
    else continue := false
  done

let due_remove_top t =
  let n = t.due_size - 1 in
  t.due_size <- n;
  if n > 0 then begin
    t.due.(0) <- t.due.(n);
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !pos) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && due_less t t.due.(r) t.due.(l) then r else l in
        if due_less t t.due.(c) t.due.(!pos) then begin
          let tmp = t.due.(!pos) in
          t.due.(!pos) <- t.due.(c);
          t.due.(c) <- tmp;
          pos := c
        end
        else continue := false
      end
    done
  end

(* Skim cancelled entries off the due-heap top and reclaim them. *)
let rec due_skim t =
  if t.due_size > 0 then begin
    let i = t.due.(0) in
    if not (is_alive t i) then begin
      due_remove_top t;
      free_entry t i;
      t.dead <- t.dead - 1;
      due_skim t
    end
  end

(* --- level-0 occupancy ------------------------------------------------ *)

let mark0 t s =
  let w = s lsr 5 in
  t.occ0.(w) <- t.occ0.(w) lor (1 lsl (s land 31))

let unmark0 t s =
  let w = s lsr 5 in
  t.occ0.(w) <- t.occ0.(w) land lnot (1 lsl (s land 31))

(* Index of the lowest set bit of [x], a non-zero 32-bit word. *)
let ctz32 x =
  let x = ref x and n = ref 0 in
  if !x land 0xFFFF = 0 then begin n := 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

(* The first occupied level-0 slot at or after [s], or [l0_slots] if
   slots [s .. l0_slots - 1] are all empty. *)
let next_occupied0 t s =
  let w = s lsr 5 in
  let bits = t.occ0.(w) land lnot ((1 lsl (s land 31)) - 1) in
  if bits <> 0 then (w lsl 5) + ctz32 bits
  else begin
    let w = ref (w + 1) in
    while !w < l0_slots / 32 && t.occ0.(!w) = 0 do
      incr w
    done;
    if !w = l0_slots / 32 then l0_slots else (!w lsl 5) + ctz32 t.occ0.(!w)
  end

(* --- tick geometry --------------------------------------------------- *)

(* Largest k with [k * granularity <= time] — with integer times this
   is plain flooring division, exact at every granularity boundary (the
   float predecessor needed two correction steps to absorb ulp error,
   and an explicit infinity clamp in [due]). Times are >= 0. *)
let[@inline] tick_of t time = time / t.granularity

(* File entry [i] by its deadline relative to the cursor: overdue
   entries go straight to the due heap, others to the coarsest level
   whose current window contains them (wrapping modulo the top level
   for deadlines beyond the horizon). *)
let place t i =
  let et = t.ticks.(i) in
  if et < t.tick then due_push t i
  else begin
    let dt = et - t.tick in
    if dt < l0_slots then begin
      let s = et land l0_mask in
      t.nexts.(i) <- t.slots0.(s);
      t.slots0.(s) <- i;
      mark0 t s
    end
    else if dt < span01 then begin
      let s = (et lsr l0_bits) land l1_mask in
      t.nexts.(i) <- t.slots1.(s);
      t.slots1.(s) <- i
    end
    else begin
      let s = (et lsr (l0_bits + l1_bits)) land l2_mask in
      t.nexts.(i) <- t.slots2.(s);
      t.slots2.(s) <- i
    end
  end

(* --- arm / cancel ---------------------------------------------------- *)

let arm t ~time ~seq payload =
  let i = alloc_entry t in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.ticks.(i) <- tick_of t time;
  t.payloads.(i) <- payload;
  set_alive t i;
  t.live <- t.live + 1;
  place t i;
  i

(* Relink every live entry and free the dead ones. Chains are rebuilt
   in reverse, but intra-slot order is irrelevant: total order is
   imposed by the due heap's (time, seq) key. *)
let sweep t =
  let sweep_level slots =
    for s = 0 to Array.length slots - 1 do
      let i = ref slots.(s) in
      slots.(s) <- -1;
      while !i >= 0 do
        let next = t.nexts.(!i) in
        if is_alive t !i then begin
          t.nexts.(!i) <- slots.(s);
          slots.(s) <- !i
        end
        else free_entry t !i;
        i := next
      done
    done
  in
  sweep_level t.slots0;
  sweep_level t.slots1;
  sweep_level t.slots2;
  for s = 0 to l0_slots - 1 do
    if t.slots0.(s) >= 0 then mark0 t s else unmark0 t s
  done;
  let n = ref 0 in
  for k = 0 to t.due_size - 1 do
    let i = t.due.(k) in
    if is_alive t i then begin
      t.due.(!n) <- i;
      incr n
    end
    else free_entry t i
  done;
  t.due_size <- !n;
  (* Survivors were already heap-ordered relative to each other, but
     re-heapify to be safe about the holes closed above. *)
  for k = ((t.due_size - 2) / 2) downto 0 do
    let pos = ref k in
    let continue = ref true in
    while !continue do
      let l = (2 * !pos) + 1 in
      if l >= t.due_size then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < t.due_size && due_less t t.due.(r) t.due.(l) then r else l
        in
        if due_less t t.due.(c) t.due.(!pos) then begin
          let tmp = t.due.(!pos) in
          t.due.(!pos) <- t.due.(c);
          t.due.(c) <- tmp;
          pos := c
        end
        else continue := false
      end
    done
  done;
  t.dead <- 0

let cancel t i ~seq =
  if i >= 0 && i < t.allocated && t.seqs.(i) = seq && is_alive t i then begin
    clear_alive t i;
    t.live <- t.live - 1;
    t.dead <- t.dead + 1;
    if t.dead > 64 && t.dead > t.live then sweep t
  end

(* --- cursor advance -------------------------------------------------- *)

(* Re-file one slot's chain (cascade, or level-0 drain into the due
   heap), reclaiming dead entries for free. *)
let drain_chain t head ~to_due =
  let i = ref head in
  while !i >= 0 do
    let next = t.nexts.(!i) in
    if not (is_alive t !i) then begin
      free_entry t !i;
      t.dead <- t.dead - 1
    end
    else if to_due then due_push t !i
    else place t !i;
    i := next
  done

(* Advance the cursor one tick: cascade coarser levels on window
   boundaries, then drain the level-0 slot into the due heap. *)
let step t =
  let tk = t.tick in
  if tk land l0_mask = 0 then begin
    let t1 = tk lsr l0_bits in
    if t1 land l1_mask = 0 then begin
      let s2 = (t1 lsr l1_bits) land l2_mask in
      let head = t.slots2.(s2) in
      t.slots2.(s2) <- -1;
      drain_chain t head ~to_due:false
    end;
    let s1 = t1 land l1_mask in
    let head = t.slots1.(s1) in
    t.slots1.(s1) <- -1;
    drain_chain t head ~to_due:false
  end;
  let s0 = tk land l0_mask in
  let head = t.slots0.(s0) in
  t.slots0.(s0) <- -1;
  unmark0 t s0;
  drain_chain t head ~to_due:true;
  t.tick <- tk + 1

let due t ~up_to =
  if t.live = 0 then false
  else begin
    due_skim t;
    (* Fast path: a due head whose tick is strictly below the cursor
       provably precedes every still-slotted entry (slotted entries have
       time >= the cursor's slot start), so it is the wheel's global
       minimum and no cursor work — in particular no [tick_of]
       division — is needed to answer. This is the common case: the
       engine polls once per event. *)
    if t.due_size > 0 && t.ticks.(t.due.(0)) < t.tick then
      t.times.(t.due.(0)) <= up_to
    else begin
      (* Advance until the due head provably precedes every still-slotted
         entry (its tick is strictly below the cursor, so its time is
         below the slot start, the lower bound of all unscanned slots —
         strict, so equal-tick entries in the boundary slot are drained
         first and (time, seq) decides), or the cursor passes [up_to]'s
         tick, at which point nothing <= up_to can remain in the slots.
         The loop body is all-integer: per-tick float arithmetic would
         cost a boxed float per empty tick traversed. *)
      (* Integer division is total: run-to-completion's [Time.never]
         bound just yields an unreachable tick, and the [live = 0]
         guard still bounds the scan. *)
      let limit = tick_of t up_to in
      let continue = ref true in
      while !continue do
        if t.due_size > 0 && t.ticks.(t.due.(0)) < t.tick then
          continue := false
        else if t.tick > limit then continue := false
        else if t.live = 0 then continue := false
        else if
          t.tick land l0_mask <> 0
          && t.slots0.(t.tick land l0_mask) < 0
        then begin
          (* Every due-heap entry's tick lies below the cursor, so the
             first test stops on any; here the heap is empty and so is
             the cursor's slot, and a [step] would only advance the
             cursor. Jump over every empty slot at once: to the next
             occupied one, or to the next window boundary (where [step]
             cascades level 1 down), or just past [limit], whichever
             comes first. Level-0 slots at or after the cursor hold
             only this window's entries. *)
          let next =
            (t.tick land lnot l0_mask) + next_occupied0 t (t.tick land l0_mask)
          in
          t.tick <- (if limit < next then limit + 1 else next)
        end
        else begin
          step t;
          due_skim t
        end
      done;
      t.due_size > 0 && t.times.(t.due.(0)) <= up_to
    end
  end

let head_time t = t.times.(t.due.(0))

let head_seq t = t.seqs.(t.due.(0))

(* Only called after [due] returned true, so the due head is live. *)
let pop_due t =
  let i = t.due.(0) in
  due_remove_top t;
  let payload = t.payloads.(i) in
  clear_alive t i;
  t.live <- t.live - 1;
  free_entry t i;
  payload
