(* One repetition of one workload, in a fresh process.

   Prints its measurements on stdout as [name=value] lines, for the
   parent ([Run]) to collect. An untraced repetition measures the
   end-to-end metrics and the exact counters. A traced one substitutes
   the timed senders and routes, reruns each cell with every link
   tapped, replays the captured arrival stream into fresh receivers,
   records GC pauses, and writes a Chrome trace. Both print the
   simulated fingerprint, which must agree between every repetition of
   a workload and seed.

   An untraced repetition takes its end-to-end timings on the thread's
   CPU clock ([Cpu_clock]), scales them to a nominal host speed
   ([reference]), and also prints them piece by piece (each cell's
   set-up, each slice of simulated time), so that the parent can keep
   the fastest time of each piece over the repetitions. *)

(* Set-ups per cell: the repetition's [setup_s] is the median over
   them, since one millisecond-scale set-up is dominated by host noise,
   and the fastest is printed for the parent. Only the last one is
   run. *)
let setups = 5

let emit name value = Printf.printf "%s=%s\n" name value

let emit_float name v = emit name (Jsonw.float_repr v)

(* --- host speed ------------------------------------------------------------ *)

(* A fixed integer loop, run after every slice of an untraced run and
   timed on the CPU clock. A shared host's speed wanders by 10-20% over
   minutes, and the simulation's speed with it. The loop, interleaved
   with the simulation, follows the same wander: over 45 repetitions of
   one fig6 seed, the simulation's rate and the loop's speed correlated
   at 0.96 (one loop timed before each repetition managed 0.5). The
   end-to-end timings are scaled by [nominal_reference_ns] over the
   loop's mean time, which reports them at the speed of a host where the
   loop takes its nominal time. *)
let reference_iterations = 60_000

let nominal_reference_ns = 200_000.

let reference () =
  let c0 = Cpu_clock.now () in
  let x = ref 1 in
  for _ = 1 to reference_iterations do
    let v = !x lxor (!x lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  Cpu_clock.now () - c0

let hops network =
  List.fold_left
    (fun acc link ->
      acc + Net.Link.transmitted_packets link + Net.Link.queue_drops link)
    (Net.Network.total_injected_losses network)
    (Net.Network.links network)

let drops network =
  Net.Network.total_queue_drops network + Net.Network.total_injected_losses network

let pool_conserved network =
  let p = Net.Network.pool network in
  Net.Packet_pool.outstanding p + Net.Packet_pool.in_pool p
  = Net.Packet_pool.created p

(* --- link taps (traced run) --------------------------------------------- *)

(* Growable int buffer. *)
type ints = { mutable a : int array; mutable len : int }

let ints () = { a = Array.make 1024 0; len = 0 }

let push b v =
  if b.len = Array.length b.a then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 bigger 0 b.len;
    b.a <- bigger
  end;
  Array.unsafe_set b.a b.len v;
  b.len <- b.len + 1

let sum b =
  let s = ref 0 in
  for i = 0 to b.len - 1 do
    s := !s + b.a.(i)
  done;
  !s

(* Comma-separated, each value times [scale]. *)
let scaled_to_string ~scale b =
  String.concat ","
    (List.init b.len (fun i -> string_of_int (Float.to_int (float_of_int b.a.(i) *. scale))))

(* Data arrivals at one cell's sinks, packed as flow, seq and retx bit. *)
type capture = { config : Tcp.Config.t; arrivals : ints }

let pack ~flow ~seq ~retx = (flow lsl 32) lor (seq lsl 1) lor Bool.to_int retx

let queue_waits = Loghist.create ()

(* Per link: simulated Queued -> Transmit_start wait of every packet
   that queued, read off a FIFO of (uid, enqueue time) — drop-tail
   queues are FIFO, and a packet transmitted without queueing only
   starts when the queue is empty. Links into a sink also capture data
   arrivals for the replay. *)
let watch_link engine ~capture link =
  let pending = ints () in
  let head = ref 0 in
  Sim.Trace.on (Net.Link.events link) (fun note ->
      match note.Net.Link.kind with
      | Net.Link.Queued ->
        push pending note.Net.Link.packet.Net.Packet.uid;
        push pending (Sim.Engine.now_ns engine)
      | Net.Link.Transmit_start ->
        if
          !head < pending.len
          && pending.a.(!head) = note.Net.Link.packet.Net.Packet.uid
        then begin
          Loghist.record queue_waits
            (Sim.Engine.now_ns engine - pending.a.(!head + 1));
          head := !head + 2;
          (* Compact once the consumed prefix is half the buffer, so a
             queue that never drains completely does not grow it. *)
          if 2 * !head >= pending.len then begin
            Array.blit pending.a !head pending.a 0 (pending.len - !head);
            pending.len <- pending.len - !head;
            head := 0
          end
        end
      | Net.Link.Delivered -> (
        match capture with
        | None -> ()
        | Some c -> (
          let p = note.Net.Link.packet in
          match p.Net.Packet.payload with
          | Tcp.Types.Data { seq; retx } ->
            push c.arrivals (pack ~flow:p.Net.Packet.flow ~seq ~retx)
          | _ -> ()))
      | Net.Link.Queue_dropped | Net.Link.Loss_dropped -> ())

let traced_hooks = { Scenarios.sender = Timed.sender; route = Timed.route }

(* Taps every link of a prepared cell; returns the cell's capture. *)
let watch (p : Scenarios.prepared) =
  let c = { config = p.config; arrivals = ints () } in
  List.iter
    (fun link ->
      let capture = if List.mem (Net.Link.dst link) p.sinks then Some c else None in
      watch_link p.engine ~capture link)
    (Net.Network.links p.network);
  c

(* Replays each captured stream flow by flow (a stable bucket sort on
   the flow id), one fresh receiver at a time, timing every
   [Tcp.Receiver.receive]. Returns (arrivals, out-of-order arrivals). *)
let replay captures =
  let receive_id = Spans.register ~sampled:true "tcp.receiver.receive" in
  let arrivals = ref 0 and ooo = ref 0 in
  let replay_one c =
    let b = c.arrivals in
    let flow_of v = v lsr 32 in
    let flows = ref 0 in
    for i = 0 to b.len - 1 do
      flows := max !flows (flow_of b.a.(i) + 1)
    done;
    let flows = !flows in
    let starts = Array.make (flows + 1) 0 in
    for i = 0 to b.len - 1 do
      let f = flow_of b.a.(i) in
      starts.(f + 1) <- starts.(f + 1) + 1
    done;
    for f = 1 to flows do
      starts.(f) <- starts.(f) + starts.(f - 1)
    done;
    let sorted = Array.make b.len 0 in
    let next = Array.copy starts in
    for i = 0 to b.len - 1 do
      let f = flow_of b.a.(i) in
      sorted.(next.(f)) <- b.a.(i);
      next.(f) <- next.(f) + 1
    done;
    for f = 0 to flows - 1 do
      if starts.(f + 1) > starts.(f) then begin
        let r = Tcp.Receiver.create c.config in
        for i = starts.(f) to starts.(f + 1) - 1 do
          let v = sorted.(i) in
          let seq = (v lsr 1) land 0x7FFF_FFFF in
          let retx = v land 1 = 1 in
          if seq > Tcp.Receiver.rcv_next r then incr ooo;
          Spans.enter receive_id;
          ignore (Tcp.Receiver.receive r ~retx ~seq ());
          ignore (Spans.leave ())
        done
      end
    done;
    arrivals := !arrivals + b.len
  in
  ignore (Spans.span "replay.tcp.receiver" (fun () -> List.iter replay_one captures));
  (!arrivals, !ooo)

(* --- one repetition ------------------------------------------------------ *)

type totals = {
  mutable hops : int;
  mutable events : int;
  mutable arms : int;
  mutable cancels : int;
  mutable fires : int;
  mutable drops : int;
  mutable pool_created : int;
  mutable flows : int;
  mutable setup_ns : int;  (** CPU ns: sum over cells of the median set-up *)
  setup_cells : ints;  (** CPU ns, per cell: the fastest of its set-ups *)
  slices : ints;  (** CPU ns of each slice of every timed run *)
  references : ints;  (** CPU ns of each [reference] loop (untraced) *)
  mutable untraced_ns : int;
  mutable alloc_b : float;
  mutable promoted_w : float;
  mutable minor : int;
  mutable major : int;
  mutable failures : string list;
  mutable fingerprint : string list;
}

let median_int xs = int_of_float (Quantiles.median (List.map float_of_int xs))

(* The simulated results of a finished cell. *)
let cell_fingerprint (p : Scenarios.prepared) =
  let e = p.engine in
  List.map string_of_int
    [ hops p.network;
      Sim.Engine.events_executed e;
      Sim.Engine.timer_arms e;
      Sim.Engine.timer_cancels e;
      Sim.Engine.timer_fires e ]
  @ List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) (p.outputs ())

(* Set up [setups] times, run the last, and fold its counters into [t].

   A traced repetition times the senders and routes of the cell it
   runs, and runs the cell twice more, each run required to simulate
   the same packets: once untraced, right before or after the traced
   run (alternating by cell), which gives the tracing overhead without
   the noise between processes; and once with every link tapped,
   untimed, since an armed tap costs more than the layers it would
   observe. *)
let run_cell t ~traced ~captures ~index (cell : Scenarios.cell) =
  let setup h =
    let c0 = Cpu_clock.now () in
    let p, _ = Spans.span "setup" (fun () -> cell.prepare h) in
    (p, Cpu_clock.now () - c0)
  in
  let discarded =
    List.init (setups - 1) (fun _ -> snd (setup Scenarios.plain))
  in
  let p, last = setup (if traced then traced_hooks else Scenarios.plain) in
  t.setup_ns <- t.setup_ns + median_int (last :: discarded);
  push t.setup_cells (List.fold_left min last discarded);
  let fail what = t.failures <- t.failures @ [ what ^ " " ^ cell.label ] in
  (* A rerun returns only its fingerprint, so no run keeps another's
     simulation alive. *)
  let rerun name ~watched =
    let q = cell.prepare Scenarios.plain in
    if watched then captures := watch q :: !captures;
    Gc.full_major ();
    let (), ns = Spans.span name (fun () -> q.run ~lap:ignore) in
    (cell_fingerprint q, ns)
  in
  let untraced_run () =
    let fingerprint, ns = rerun "run.untraced" ~watched:false in
    t.untraced_ns <- t.untraced_ns + ns;
    fingerprint
  in
  let untraced_first = if traced && index mod 2 = 1 then Some (untraced_run ()) else None in
  (* As in [bench/alloc_suite.ml]: the timed phase starts from a
     collected heap, so the discarded set-ups' garbage is not charged to
     it. *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let (), _ =
    Spans.span "run" (fun () ->
        let last = ref (Cpu_clock.now ()) in
        p.run ~lap:(fun () ->
            push t.slices (Cpu_clock.now () - !last);
            if not traced then push t.references (reference ());
            last := Cpu_clock.now ()))
  in
  Gc.minor ();
  let a1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  let e = p.engine in
  t.hops <- t.hops + hops p.network;
  t.events <- t.events + Sim.Engine.events_executed e;
  t.arms <- t.arms + Sim.Engine.timer_arms e;
  t.cancels <- t.cancels + Sim.Engine.timer_cancels e;
  t.fires <- t.fires + Sim.Engine.timer_fires e;
  t.drops <- t.drops + drops p.network;
  t.pool_created <- t.pool_created + Net.Packet_pool.created (Net.Network.pool p.network);
  t.flows <- t.flows + p.flows;
  t.alloc_b <- t.alloc_b +. (a1 -. a0);
  t.promoted_w <- t.promoted_w +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  t.minor <- t.minor + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  t.major <- t.major + (s1.Gc.major_collections - s0.Gc.major_collections);
  if not (pool_conserved p.network) then fail "packet pool";
  let fingerprint = cell_fingerprint p in
  t.fingerprint <- t.fingerprint @ fingerprint;
  if traced then begin
    let untraced =
      match untraced_first with Some f -> f | None -> untraced_run ()
    in
    if untraced <> fingerprint then fail "untraced run differs";
    if fst (rerun "tap" ~watched:true) <> fingerprint then fail "tapped run differs"
  end

let fig6_variants =
  List.map (fun (l, _) -> Experiments.Variants.canonical l) Experiments.Variants.fig6

let per f xs = if xs = 0 then 0. else f /. float_of_int xs

(* Per-layer metrics of a traced repetition, from the span aggregates. *)
let emit_layers t ~arrivals ~ooo ~pauses ~lost =
  let aggs = Spans.aggregates () in
  let sum_where p f =
    List.fold_left (fun acc a -> if p a then acc + f a else acc) 0 aggs
  in
  let starts_with prefix a = String.starts_with ~prefix a.Spans.agg_name in
  let under_run a = a.Spans.parent = "run" in
  let calls p = sum_where p (fun a -> a.Spans.calls) in
  let total p = sum_where p (fun a -> a.Spans.total_ns) in
  let mean_ns p = per (float_of_int (total p)) (calls p) in
  let hist p =
    let h = Loghist.create () in
    List.iter (fun a -> if p a then Loghist.merge_into ~into:h a.Spans.durations) aggs;
    h
  in
  let on_ack = starts_with "tcp.sender.on_ack." in
  let on_timer = starts_with "tcp.sender.on_timer." in
  let create = starts_with "tcp.sender.create." in
  let sender = starts_with "tcp.sender." in
  let route a = a.Spans.agg_name = "multipath.route" in
  let in_run p a = p a && under_run a in
  let hops = t.hops in
  let run_self = sum_where (fun a -> a.Spans.agg_name = "run") (fun a -> a.Spans.self_ns) in
  let run_total = total (fun a -> a.Spans.agg_name = "run") in
  emit_float "tcp.sender.on_ack.calls_per_hop" (per (float_of_int (calls on_ack)) hops);
  emit_float "tcp.sender.on_ack.ns" (mean_ns on_ack);
  emit_float "tcp.sender.on_ack.ns.p50" (Loghist.percentile (hist on_ack) 50.);
  emit_float "tcp.sender.on_ack.ns.p99" (Loghist.percentile (hist on_ack) 99.);
  List.iter
    (fun v ->
      emit_float ("tcp.sender.on_ack.ns." ^ v)
        (mean_ns (fun a -> a.Spans.agg_name = "tcp.sender.on_ack." ^ v)))
    fig6_variants;
  emit_float "tcp.sender.on_timer.calls" (float_of_int (calls on_timer));
  emit_float "tcp.sender.on_timer.ns" (mean_ns on_timer);
  emit_float "tcp.sender.create.calls" (float_of_int (calls create));
  emit_float "tcp.sender.create.ns" (mean_ns create);
  emit_float "tcp.sender.share" (per (float_of_int (total (in_run sender))) run_total);
  emit_float "tcp.sender.ns_per_hop" (per (float_of_int (total (in_run sender))) hops);
  emit_float "multipath.route.calls_per_hop" (per (float_of_int (calls route)) hops);
  emit_float "multipath.route.ns" (mean_ns route);
  emit_float "multipath.route.ns_per_hop" (per (float_of_int (total (in_run route))) hops);
  emit_float "residual.ns_per_hop" (per (float_of_int run_self) hops);
  emit_float "trace.run_ns_per_hop" (per (float_of_int run_total) hops);
  let receive a = a.Spans.agg_name = "tcp.receiver.receive" in
  emit_float "tcp.receiver.ns_per_arrival" (mean_ns receive);
  emit_float "tcp.receiver.ooo_share" (per (float_of_int ooo) arrivals);
  emit_float "net.queue_wait_us.p50" (Loghist.percentile queue_waits 50. /. 1e3);
  emit_float "net.queue_wait_us.p99" (Loghist.percentile queue_waits 99. /. 1e3);
  let pause_ns = List.fold_left ( + ) 0 pauses in
  let pause_hist = Loghist.create () in
  List.iter (Loghist.record pause_hist) pauses;
  emit_float "gc.pause_ms" (float_of_int pause_ns /. 1e6);
  emit_float "gc.pause_ms.p99" (Loghist.percentile pause_hist 99. /. 1e6);
  emit_float "gc.share" (per (float_of_int pause_ns) run_total);
  emit_float "gc.lost_events" (float_of_int lost);
  emit_float "trace.overhead" ((float_of_int run_total /. float_of_int t.untraced_ns) -. 1.)

(* [run ~workload ~seed ~size ~traced ~out] runs one repetition and
   prints its measurements. *)
let run (w : Scenarios.workload) ~seed ~size ~traced ~out =
  let cells = w.Scenarios.cells ~seed size in
  let t =
    { hops = 0; events = 0; arms = 0; cancels = 0; fires = 0; drops = 0;
      pool_created = 0; flows = 0; setup_ns = 0; setup_cells = ints (); slices = ints ();
      references = ints (); untraced_ns = 0; alloc_b = 0.;
      promoted_w = 0.; minor = 0; major = 0; failures = []; fingerprint = [] }
  in
  let captures = ref [] in
  if traced then Spans.calibrate ();
  let gc = if traced then Some (Gc_pauses.start ()) else None in
  ignore
    (Spans.span "workload" (fun () ->
         List.iteri
           (fun index (cell : Scenarios.cell) ->
             ignore
               (Spans.span "cell" (fun () -> run_cell t ~traced ~captures ~index cell)))
           cells));
  let word = float_of_int (Sys.word_size / 8) in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let hops_f = float_of_int t.hops in
  let run_s = float_of_int (sum t.slices) /. 1e9 in
  emit "fingerprint" (Digest.to_hex (Digest.string (String.concat "," t.fingerprint)));
  emit "check" (if t.failures = [] then "ok" else String.concat "; " t.failures);
  if not traced then begin
    (* The end-to-end timings, at the nominal host speed (see
       [reference]); the traced repetition runs no reference loop. *)
    let reference_ns = float_of_int (sum t.references) /. float_of_int t.references.len in
    let scale = nominal_reference_ns /. reference_ns in
    emit_float "hops_per_s" (hops_f /. (run_s *. scale));
    emit_float "setup_s" (float_of_int t.setup_ns *. scale /. 1e9);
    emit "setup.cells_ns" (scaled_to_string ~scale t.setup_cells);
    emit "run.slices_ns" (scaled_to_string ~scale t.slices);
    emit_float "host.calib_ns" reference_ns
  end;
  emit_float "alloc_b_per_hop" (t.alloc_b /. hops_f);
  emit_float "peak_heap_mb" (float_of_int top_heap_words *. word /. 1e6);
  emit_float "sim.events_per_hop" (float_of_int t.events /. hops_f);
  emit_float "sim.timer_ops_per_hop" (float_of_int (t.arms + t.cancels + t.fires) /. hops_f);
  emit_float "sim.timer_fire_ratio" (per (float_of_int t.fires) t.arms);
  emit_float "sim.events_per_s" (float_of_int t.events /. run_s);
  emit_float "net.hops" hops_f;
  emit_float "net.drop_ratio" (float_of_int t.drops /. hops_f);
  emit_float "net.pool.created" (float_of_int t.pool_created);
  emit_float "workload.setup_ns_per_flow" (per (float_of_int t.setup_ns) t.flows);
  emit_float "gc.minor_collections" (float_of_int t.minor);
  emit_float "gc.major_collections" (float_of_int t.major);
  emit_float "gc.promoted_b_per_hop" (t.promoted_w *. word /. hops_f);
  match gc with
  | None -> ()
  | Some gc ->
    Gc_pauses.stop gc;
    let windows =
      List.map (fun e -> (e.Spans.start_ns, e.Spans.dur_ns)) (Spans.events_named "run")
    in
    let pauses = Gc_pauses.within gc windows in
    let arrivals, ooo = replay (List.rev !captures) in
    emit_layers t ~arrivals ~ooo ~pauses ~lost:(Gc_pauses.lost gc);
    Jsonw.to_file
      (Filename.concat out (Printf.sprintf "trace-%s.json" w.Scenarios.name))
      (Spans.chrome_trace ~process:w.Scenarios.name)
