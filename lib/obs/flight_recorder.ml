(* Bounded ring of the last N events.

   The backing array is allocated on the first note (there is no cheap
   dummy for an arbitrary ['a]); after that a note is two stores and an
   increment, so an armed recorder adds no allocation per event. The
   ring only retains what fits: older events are overwritten, which is
   exactly the "flight recorder" contract — when a monitor fails, the
   last [capacity] events are still there to render.

   Events are stored by reference. Feed it values that stay valid after
   the callback returns (e.g. [Tcp.Probe] events); do NOT attach it to
   a tap that reuses one mutable record per emission (e.g.
   [Net.Link.events]) — every retained slot would alias the same
   record. *)

type 'a t = {
  capacity : int;
  mutable items : 'a array;  (* [||] until the first note *)
  mutable total : int;  (* events ever noted *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity < 1";
  { capacity; items = [||]; total = 0 }

let note t x =
  if Array.length t.items = 0 then t.items <- Array.make t.capacity x
  else t.items.(t.total mod t.capacity) <- x;
  t.total <- t.total + 1

let capacity t = t.capacity

let total t = t.total

let length t = min t.total t.capacity

let overwritten t = max 0 (t.total - t.capacity)

let to_list t =
  let n = length t in
  List.init n (fun i -> t.items.((t.total - n + i) mod t.capacity))

let attach ?(capacity = 64) tap =
  let t = create ~capacity in
  Sim.Trace.on tap (note t);
  t
