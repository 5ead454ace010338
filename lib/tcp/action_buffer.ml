(* Reusable flat buffer of sender actions.

   Senders used to return [Action.t list] from every handler: two heap
   blocks per action (cons cell + constructor block, plus a boxed float
   inside [Set_timer]) on the hottest path in the simulator — every
   ACK arms or cancels a timer and usually sends. This buffer replaces
   the list with three parallel int arrays owned by the connection and
   cleared per event, so steady-state emission is a few int stores and
   draining is an int-indexed loop: no allocation on either side.

   Encoding: [ops.(i)] is the opcode; [args.(i)] is the segment
   sequence number (sends) or the timer key (timers); [delays.(i)] is
   the {!Sim.Time.t} delay in integer nanoseconds ([Set_timer] only,
   else 0). Delays travel as ints end to end — a [float] parameter
   here would re-box per call at exactly the module boundary this
   buffer exists to flatten; emitters convert seconds with the inlined
   {!Sim.Time.of_sec} and {!Connection} feeds the int straight to
   [Engine.arm_timer_ns].

   The [Action.t] list API remains the *description* format: probes and
   unit tests materialise slices with [to_list]/[to_list_from], off the
   hot path. *)

type t = {
  mutable ops : int array;
  mutable args : int array;
  mutable delays : int array;
  mutable len : int;
}

let op_send = 0

let op_send_retx = 1

let op_set_timer = 2

let op_cancel_timer = 3

let create () =
  let capacity = 16 in
  { ops = Array.make capacity 0;
    args = Array.make capacity 0;
    delays = Array.make capacity 0;
    len = 0 }

let[@inline] length t = t.len

let[@inline] clear t = t.len <- 0

(* Cold: only runs when an event emits more actions than any earlier
   event did (a whole-window burst on the first ACK, typically). *)
let grow t =
  let cap = 2 * Array.length t.ops in
  let ops = Array.make cap 0 in
  let args = Array.make cap 0 in
  let delays = Array.make cap 0 in
  Array.blit t.ops 0 ops 0 t.len;
  Array.blit t.args 0 args 0 t.len;
  Array.blit t.delays 0 delays 0 t.len;
  t.ops <- ops;
  t.args <- args;
  t.delays <- delays

let[@inline] push t op arg delay =
  let i = t.len in
  if i = Array.length t.ops then grow t;
  Array.unsafe_set t.ops i op;
  Array.unsafe_set t.args i arg;
  Array.unsafe_set t.delays i delay;
  t.len <- i + 1

let[@inline] send t ~seq = push t op_send seq 0

let[@inline] send_retx t ~seq = push t op_send_retx seq 0

let[@inline] set_timer_ns t ~key ~delay = push t op_set_timer key delay

(* Seconds-flavoured emitter for cores that hold their RTO as a float:
   the conversion happens here, inside the caller once this inlines, so
   the float never crosses a call boundary. *)
let[@inline] set_timer t ~key ~delay =
  push t op_set_timer key (Sim.Time.of_sec_delay delay)

let[@inline] cancel_timer t ~key = push t op_cancel_timer key 0

let[@inline] op t i = Array.unsafe_get t.ops i

let[@inline] arg t i = Array.unsafe_get t.args i

let[@inline] delay_ns t i = Array.unsafe_get t.delays i

let action t i =
  let arg = t.args.(i) in
  match t.ops.(i) with
  | 0 -> Action.Send { seq = arg; retx = false }
  | 1 -> Action.Send { seq = arg; retx = true }
  | 2 -> Action.Set_timer { key = arg; delay = Sim.Time.to_sec t.delays.(i) }
  | 3 -> Action.Cancel_timer { key = arg }
  | op -> invalid_arg (Printf.sprintf "Action_buffer: bad opcode %d" op)

let to_list_from t start =
  let rec build i acc =
    if i < start then acc else build (i - 1) (action t i :: acc)
  in
  build (t.len - 1) []

let to_list t = to_list_from t 0

(* Unit-test adapter: run an emitter against a scratch buffer and
   return what it produced, in list form. *)
let collect f =
  let t = create () in
  f t;
  to_list t
