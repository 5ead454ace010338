(* In-memory span recorder for the traced run.

   Two kinds of span share one stack, so every span knows its parent:

   - coarse spans ([span]: workload, cell, setup, run, the receiver
     replay) are timed every time, kept individually and written out as
     Chrome trace events;
   - per-call spans ([enter] / [leave] on a name registered with
     [~sampled:true]: sender handlers, route draws, receiver calls) are
     far too many to keep or even to time — two clock reads cost more
     than a route draw. Each call is counted exactly, but only a random
     subsample (one call in 8.5 on average) is timed, and the timed
     calls are folded in place into an aggregate per (name, parent
     name): call count, timed count, estimated total and self
     nanoseconds, and a {!Loghist} of the timed durations.

   A timed call stands for itself and the untimed calls that follow it,
   so the estimated total weighs its duration by that gap; the gap is
   drawn independently of the duration, so the estimate is unbiased. A span's self time is its duration minus the
   (estimated) durations of the spans opened directly inside it.
   Durations exclude the cost of an empty span ({!calibrate}). The
   per-call path allocates nothing. One recorder per process. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let max_names = 64

let max_depth = 64

let names = Array.make max_names ""

let is_sampled = Array.make max_names false

let n_names = ref 1 (* id 0 is the root: the parent of outermost spans *)

let () = names.(0) <- "root"

(* [register name] is the id of [name], allocated on first use. *)
let register ?(sampled = false) name =
  let rec find i =
    if i = !n_names then begin
      if i = max_names then invalid_arg "Spans.register: too many names";
      names.(i) <- name;
      incr n_names;
      i
    end
    else if names.(i) = name then i
    else find (i + 1)
  in
  let id = find 1 in
  if sampled then is_sampled.(id) <- true;
  id

(* Aggregates, indexed [id * max_names + parent]. *)
let slots = max_names * max_names

let count = Array.make slots 0

let timed = Array.make slots 0

let total = Array.make slots 0

let self = Array.make slots 0

let hists = Array.init slots (fun _ -> None)

let hist slot =
  match Array.unsafe_get hists slot with
  | Some h -> h
  | None ->
    let h = Loghist.create () in
    hists.(slot) <- Some h;
    h

(* Calls left until the next timed one, per name. *)
let countdown = Array.make max_names 0

let rng = ref 0x2545F491

(* Uniform in [1, 16]: the number of calls a timed call stands for. *)
let next_gap () =
  let x = !rng in
  let x = x lxor ((x lsl 13) land 0xFFFF_FFFF) in
  let x = x lxor (x lsr 17) in
  let x = x lxor ((x lsl 5) land 0xFFFF_FFFF) in
  rng := x;
  1 + (x land 15)

(* The open spans. [stack_t0] is -1 for an untimed call; [stack_w] is
   the number of calls a timed one stands for. *)
let stack_id = Array.make max_depth 0

let stack_t0 = Array.make max_depth 0

let stack_w = Array.make max_depth 1

let stack_child = Array.make max_depth 0

let depth = ref 0

(* Cost of an empty timed span, subtracted from sampled durations. *)
let bias = ref 0

let enter id =
  let d = !depth in
  Array.unsafe_set stack_id d id;
  Array.unsafe_set stack_child d 0;
  depth := d + 1;
  let c = Array.unsafe_get countdown id in
  if c > 0 then begin
    Array.unsafe_set countdown id (c - 1);
    Array.unsafe_set stack_t0 d (-1)
  end
  else begin
    let w = if Array.unsafe_get is_sampled id then next_gap () else 1 in
    Array.unsafe_set countdown id (w - 1);
    Array.unsafe_set stack_w d w;
    Array.unsafe_set stack_t0 d (now ())
  end

(* Closes the innermost span; returns its duration in ns, or 0 for an
   untimed call. *)
let leave () =
  let d = !depth - 1 in
  depth := d;
  let id = Array.unsafe_get stack_id d in
  let parent = if d = 0 then 0 else Array.unsafe_get stack_id (d - 1) in
  let slot = (id * max_names) + parent in
  Array.unsafe_set count slot (Array.unsafe_get count slot + 1);
  let t0 = Array.unsafe_get stack_t0 d in
  if t0 < 0 then 0
  else begin
    let raw = now () - t0 in
    let dur =
      if Array.unsafe_get is_sampled id then max 0 (raw - !bias) else raw
    in
    let w = Array.unsafe_get stack_w d in
    Array.unsafe_set timed slot (Array.unsafe_get timed slot + 1);
    Array.unsafe_set total slot (Array.unsafe_get total slot + (dur * w));
    Array.unsafe_set self slot
      (Array.unsafe_get self slot + ((dur - Array.unsafe_get stack_child d) * w));
    Loghist.record (hist slot) dur;
    if d > 0 then
      Array.unsafe_set stack_child (d - 1)
        (Array.unsafe_get stack_child (d - 1) + (dur * w));
    dur
  end

let reset_slot slot =
  count.(slot) <- 0;
  timed.(slot) <- 0;
  total.(slot) <- 0;
  self.(slot) <- 0;
  hists.(slot) <- None

(* Sets [bias] to the median duration of an empty timed span. *)
let calibrate () =
  let id = register "spans.calibrate" in
  let durs = Array.init 2001 (fun _ -> enter id; leave ()) in
  Array.sort compare durs;
  bias := durs.(1000);
  reset_slot (id * max_names)

type event = { ev_name : string; start_ns : int; dur_ns : int }

let events = ref []

(* [span name f] runs [f] as a coarse span and returns its result with
   the span's duration in ns. *)
let span name f =
  let id = register name in
  enter id;
  let start_ns = stack_t0.(!depth - 1) in
  let r = f () in
  let dur_ns = leave () in
  events := { ev_name = name; start_ns; dur_ns } :: !events;
  (r, dur_ns)

(* Coarse spans named [name], in start order. *)
let events_named name =
  List.rev (List.filter (fun e -> e.ev_name = name) !events)

type aggregate = {
  agg_name : string;
  parent : string;
  calls : int;
  timed_calls : int;
  total_ns : int;  (** estimated over all calls *)
  self_ns : int;
  durations : Loghist.t;  (** of the timed calls *)
}

let aggregates () =
  let acc = ref [] in
  for slot = slots - 1 downto 0 do
    if count.(slot) > 0 then
      acc :=
        { agg_name = names.(slot / max_names);
          parent = names.(slot mod max_names);
          calls = count.(slot);
          timed_calls = timed.(slot);
          total_ns = total.(slot);
          self_ns = self.(slot);
          durations = hist slot }
        :: !acc
  done;
  !acc

(* Chrome trace-event JSON: coarse spans as complete ("X") events in
   microseconds from the first span, per-call aggregates under
   [otherData]. *)
let chrome_trace ~process =
  let evs = List.rev !events in
  let origin = List.fold_left (fun m e -> min m e.start_ns) max_int evs in
  let us ns = Jsonw.Float (float_of_int ns /. 1e3) in
  let trace_event e =
    Jsonw.Obj
      [ ("name", Jsonw.String e.ev_name);
        ("cat", Jsonw.String "bench");
        ("ph", Jsonw.String "X");
        ("ts", us (e.start_ns - origin));
        ("dur", us e.dur_ns);
        ("pid", Jsonw.Int 1);
        ("tid", Jsonw.Int 1) ]
  in
  let aggregate a =
    Jsonw.Obj
      [ ("name", Jsonw.String a.agg_name);
        ("parent", Jsonw.String a.parent);
        ("calls", Jsonw.Int a.calls);
        ("timed_calls", Jsonw.Int a.timed_calls);
        ("total_ns", Jsonw.Int a.total_ns);
        ("self_ns", Jsonw.Int a.self_ns);
        ("p50_ns", Jsonw.Float (Loghist.percentile a.durations 50.));
        ("p99_ns", Jsonw.Float (Loghist.percentile a.durations 99.)) ]
  in
  Jsonw.Obj
    [ ("traceEvents", Jsonw.List (List.map trace_event evs));
      ("displayTimeUnit", Jsonw.String "ns");
      ( "otherData",
        Jsonw.Obj
          [ ("process", Jsonw.String process);
            ("empty_span_ns", Jsonw.Int !bias);
            ("aggregates", Jsonw.List (List.map aggregate (aggregates ()))) ] ) ]
