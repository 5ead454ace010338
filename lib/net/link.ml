(* Observable per-packet events, for trace-driven analysis. *)
type event =
  | Transmit_start
  | Queued
  | Queue_dropped
  | Loss_dropped
  | Delivered

(* One preallocated note per link is reused for every emission, so an
   armed tap costs two stores per event and an unarmed one costs a
   single flag read. The flip side: handlers must read the fields they
   need during the callback and must not retain the note. *)
type note = {
  mutable kind : event;
  mutable packet : Packet.t;
  link_id : int;
  link_src : int;
  link_dst : int;
}

type t = {
  id : int;
  src : int;
  dst : int;
  mutable bandwidth_bps : float;
  delay_s : float;
  (* [delay_s] converted once at creation: the propagation term added to
     every arrival without a per-packet float conversion. *)
  delay_ns : Sim.Time.t;
  queue : Qdisc.t;
  loss : Loss_model.t;
  engine : Sim.Engine.t;
  (* Per-packet extra propagation delay, uniform in [0, jitter_s):
     models wireless MAC retransmissions and similar per-hop variance.
     Breaks per-link FIFO by design. *)
  jitter : (Sim.Rng.t * float) option;
  mutable busy : bool;
  (* Size of the packet currently on the wire. A link serialises
     transmissions, so one slot suffices; it lets [tx_done] capture only
     the link instead of the packet. *)
  mutable tx_size : int;
  mutable deliver : Packet.t -> unit;
  mutable recycle : Packet.t -> unit;
  events : note Sim.Trace.tap;
  note : note;
  mutable transmitted_packets : int;
  mutable transmitted_bytes : int;
  mutable injected_losses : int;
  (* Cumulative wire time in integer nanoseconds: a plain mutable int
     field never boxes, unlike the one-slot floatarray this replaces. *)
  mutable busy_time_ns : int;
  (* The transmission-complete event for this link, one closure
     allocated at creation: the link serialises transmissions, so the
     same closure can sit in the event queue for every one of them. *)
  mutable tx_done : unit -> unit;
  (* Free arrival cells (stack of [arrive_free] cells). Unlike
     [tx_done], many arrivals can be in flight on one link at once
     (one per packet inside [delay_s]), so each carries its own cell —
     pooled, with its arrival closure cached inside, so the
     steady-state per-transmission cost is two stores instead of a
     fresh closure per packet. *)
  mutable arrive_cells : arrive_cell array;
  mutable arrive_free : int;
  (* GRO/interrupt coalescing at the receiving NIC: arrivals are parked
     in [co_buf] and handed to the node in one burst when either the
     coalesce timer expires or [co_burst] packets have accumulated.
     [co_timer_ns = 0] (the default) disables the model entirely — the
     packet is delivered inline exactly as before. A full burst also
     flushes inline, so [co_burst = 1] is delivery-for-delivery
     identical to coalescing off (the qcheck identity property). *)
  mutable co_timer_ns : int;
  mutable co_burst : int;
  mutable co_buf : Packet.t array;
  mutable co_len : int;
  mutable co_cell : Sim.Engine.timer option;
  (* Burst-size distribution over flushes. *)
  co_bursts : Obs.Metrics.Histogram.t;
}

and arrive_cell = {
  mutable ar_packet : Packet.t;
  mutable ar_fire : unit -> unit;
}

let id t = t.id

let src t = t.src

let dst t = t.dst

let bandwidth_bps t = t.bandwidth_bps

let delay_s t = t.delay_s

let set_deliver t f = t.deliver <- f

let set_recycle t f = t.recycle <- f

let events t = t.events

let observe t event packet =
  if Sim.Trace.armed t.events then begin
    t.note.kind <- event;
    t.note.packet <- packet;
    Sim.Trace.emit t.events t.note
  end

let set_bandwidth t bps =
  assert (bps > 0.);
  t.bandwidth_bps <- bps

let deliver_one t packet =
  packet.Packet.hops <- packet.Packet.hops + 1;
  observe t Delivered packet;
  t.deliver packet

(* Hand the parked burst to the node, in arrival order. The burst is
   drained before any delivery runs: a delivery callback may send on
   this very link (forwarding), and must find a clean buffer. *)
let co_flush t =
  let n = t.co_len in
  if n > 0 then begin
    t.co_len <- 0;
    Obs.Metrics.Histogram.record t.co_bursts n;
    for i = 0 to n - 1 do
      deliver_one t (Array.unsafe_get t.co_buf i)
    done
  end

let co_cell t =
  match t.co_cell with
  | Some tm -> tm
  | None ->
    let tm = Sim.Engine.make_timer t.engine (fun () -> co_flush t) in
    t.co_cell <- Some tm;
    tm

let arrive t packet =
  if t.co_timer_ns = 0 then deliver_one t packet
  else begin
    if t.co_len = Array.length t.co_buf then begin
      let bigger = Array.make (max 4 (2 * Array.length t.co_buf)) packet in
      Array.blit t.co_buf 0 bigger 0 t.co_len;
      t.co_buf <- bigger
    end;
    Array.unsafe_set t.co_buf t.co_len packet;
    t.co_len <- t.co_len + 1;
    if t.co_len >= t.co_burst then begin
      (match t.co_cell with
      | Some tm -> Sim.Engine.cancel_timer t.engine tm
      | None -> ());
      co_flush t
    end
    else begin
      let tm = co_cell t in
      if not (Sim.Engine.timer_armed tm) then
        Sim.Engine.arm_timer_ns t.engine tm ~delay:t.co_timer_ns
    end
  end

let release_arrive t cell =
  let cap = Array.length t.arrive_cells in
  if t.arrive_free = cap then begin
    let bigger = Array.make (max 4 (2 * cap)) cell in
    Array.blit t.arrive_cells 0 bigger 0 cap;
    t.arrive_cells <- bigger
  end;
  Array.unsafe_set t.arrive_cells t.arrive_free cell;
  t.arrive_free <- t.arrive_free + 1

(* The body of every arrival closure: free the cell, then deliver its
   packet. *)
let on_arrive t cell =
  let packet = cell.ar_packet in
  release_arrive t cell;
  arrive t packet

let alloc_arrive t packet =
  if t.arrive_free = 0 then begin
    let cell = { ar_packet = packet; ar_fire = ignore } in
    cell.ar_fire <- (fun () -> on_arrive t cell);
    cell
  end
  else begin
    t.arrive_free <- t.arrive_free - 1;
    let cell = Array.unsafe_get t.arrive_cells t.arrive_free in
    cell.ar_packet <- packet;
    cell
  end

let rec transmit t packet =
  observe t Transmit_start packet;
  let tx_ns =
    Sim.Time.of_sec (float_of_int packet.Packet.size *. 8. /. t.bandwidth_bps)
  in
  t.busy <- true;
  t.busy_time_ns <- t.busy_time_ns + tx_ns;
  t.tx_size <- packet.Packet.size;
  let extra_ns =
    match t.jitter with
    | Some (rng, j) when j > 0. ->
      Sim.Time.of_sec (Sim.Rng.float_range rng ~lo:0. ~hi:j)
    | Some _ | None -> 0
  in
  (* [tx_done] is pushed first so that when [delay_ns] and [extra_ns]
     are both zero it still runs before the arrival. *)
  Sim.Engine.schedule_after_ns t.engine ~delay:tx_ns t.tx_done;
  Sim.Engine.schedule_after_ns t.engine
    ~delay:(tx_ns + t.delay_ns + extra_ns)
    (alloc_arrive t packet).ar_fire

and finish_transmission t =
  t.transmitted_packets <- t.transmitted_packets + 1;
  t.transmitted_bytes <- t.transmitted_bytes + t.tx_size;
  if Qdisc.is_empty t.queue then t.busy <- false
  else transmit t (Qdisc.pop_exn t.queue)

let create engine ~id ~src ~dst ~bandwidth_bps ~delay_s ~capacity
    ?(loss = Loss_model.perfect) ?qdisc ?jitter () =
  assert (bandwidth_bps > 0.);
  assert (delay_s >= 0.);
  let queue =
    match qdisc with
    | Some qdisc -> qdisc
    | None -> Qdisc.drop_tail ~capacity
  in
  (match jitter with
  | Some (_, j) when j < 0. -> invalid_arg "Link.create: negative jitter"
  | Some _ | None -> ());
  (* Placeholder packet behind the reused note, replaced on the first
     emission; the route trivially ends at its destination 0. *)
  let dummy_packet =
    Packet.create ~uid:(-1) ~flow:(-1) ~src:0 ~dst:0 ~size:1 ~route:[| 0 |]
      ~born:0. Packet.Recycled
  in
  let t =
    { id;
      src;
      dst;
      bandwidth_bps;
      delay_s;
      delay_ns = Sim.Time.of_sec delay_s;
      queue;
      loss;
      engine;
      jitter;
      busy = false;
      tx_size = 0;
      deliver = (fun _ -> ());
      recycle = ignore;
      events = Sim.Trace.tap ();
      note =
        { kind = Transmit_start;
          packet = dummy_packet;
          link_id = id;
          link_src = src;
          link_dst = dst };
      transmitted_packets = 0;
      transmitted_bytes = 0;
      injected_losses = 0;
      busy_time_ns = 0;
      tx_done = ignore;
      arrive_cells = [||];
      arrive_free = 0;
      co_timer_ns = 0;
      co_burst = 1;
      co_buf = [||];
      co_len = 0;
      co_cell = None;
      co_bursts = Obs.Metrics.Histogram.create () }
  in
  t.tx_done <- (fun () -> finish_transmission t);
  t

let send t packet =
  if Loss_model.drops t.loss packet then begin
    t.injected_losses <- t.injected_losses + 1;
    observe t Loss_dropped packet;
    t.recycle packet
  end
  else if t.busy then begin
    if Qdisc.offer t.queue packet then observe t Queued packet
    else begin
      observe t Queue_dropped packet;
      t.recycle packet
    end
  end
  else transmit t packet

let queue_length t = Qdisc.length t.queue

let queue_drops t = Qdisc.drops t.queue

let queue_enqueued t = Qdisc.enqueued t.queue

let queue_early_drops t = Qdisc.early_drops t.queue

let queue_occupancy t = Qdisc.occupancy t.queue

let set_coalescing t ~timer_s ~max_burst =
  if timer_s < 0. then invalid_arg "Link.set_coalescing: negative timer";
  if max_burst < 1 then invalid_arg "Link.set_coalescing: burst < 1";
  if t.co_len > 0 then
    invalid_arg "Link.set_coalescing: arrivals already parked";
  t.co_timer_ns <- Sim.Time.of_sec timer_s;
  t.co_burst <- max_burst;
  if Array.length t.co_buf < max_burst then
    t.co_buf <- Array.make max_burst t.note.packet

let coalescing_enabled t = t.co_timer_ns > 0

let coalesced_bursts t = t.co_bursts

let injected_losses t = t.injected_losses

let transmitted_packets t = t.transmitted_packets

let transmitted_bytes t = t.transmitted_bytes

let busy_time t = Sim.Time.to_sec t.busy_time_ns
