(* One TCP connection: a sender variant and the receiver bound to two
   nodes of a network. Sender handlers write their actions into the
   connection's reusable [Action_buffer], which is drained against the
   engine. Per-event tracing is the optional [Tcp.Probe] tap: its
   events render as [Probe.to_line] lines in [report --tail] and in the
   oracle's failure tails. *)

type t = {
  network : Net.Network.t;
  engine : Sim.Engine.t;
  mutable config : Config.t;
  mutable flow : int;
  src : Net.Node.t;
  dst : Net.Node.t;
  sender : Sender.packed;
  receiver : Receiver.t;
  route_data : unit -> int array;
  route_ack : unit -> int array;
  mutable started : bool;
  mutable data_packets_sent : int;
  mutable timer_fires : int;
  mutable delack_timeouts : int;
  mutable finished_at : float option;
  (* Delayed-ACK machinery: the deferred acknowledgement (refreshed on
     each arrival) and its flush deadline. *)
  mutable pending_ack : Types.ack option;
  (* Sender action buffer: handlers append, {!drain_actions} executes.
     Accumulates across every sender event of one simulated instant and
     drains once at the instant's end (see {!arm_flush}), so N same-tick
     ACKs cost one timer rearm instead of N. *)
  buf : Action_buffer.t;
  mutable flush_armed : bool;
  (* The end-of-instant drain closure, allocated once. *)
  mutable flush_fn : unit -> unit;
  probe : Probe.t option;
  (* Shared data-plane reorder detector: sees every data arrival at
     the sink, before the host stack classifies it. *)
  sketch : Obs.Reorder_sketch.t option;
  on_finish : (unit -> unit) option;
  (* Keyed timer slots, one {!Sim.Engine.timer} cell per sender timer
     key (senders use 0..2) plus one for the delayed-ACK flush. The
     cell is the single source of truth for "is this timer pending" —
     the engine clears it before running the handler, so handlers can
     rearm their own key without racing any stale bookkeeping (the
     Hashtbl id table this replaces had exactly that race). Cells are
     allocated once per key; steady-state (re)arming allocates
     nothing. *)
  mutable timer_cells : Sim.Engine.timer option array;
  mutable delack_cell : Sim.Engine.timer option;
  (* Application-drain machinery (finite receive buffer with a paced
     reader): one read per [drain_period] seconds, plus the
     window-reopen announcements owed after a zero-window
     advertisement. [drain_period = 0.] when no paced reader is
     configured — the timer is then never armed. *)
  mutable drain_period : float;
  mutable drain_cell : Sim.Engine.timer option;
  mutable window_updates_sent : int;
  (* The packet handlers attached at [dst] and [src] under [flow], built
     once; {!reuse} re-attaches them under the next flow id. *)
  mutable data_handler : Net.Packet.t -> unit;
  mutable ack_handler : Net.Packet.t -> unit;
}

(* Wire size of an ACK packet in bytes, and the deadline of a deferred
   acknowledgement (RFC 1122 delayed ACKs). *)
let ack_size = 40

let delack_timeout = 0.2

(* Instrumentation is pay-for-use: [probing t] is false unless a probe
   with at least one listener was supplied, and every snapshot or event
   construction hides behind it. *)
let probing t =
  match t.probe with Some probe -> Sim.Trace.armed probe | None -> false

let emit_event t event =
  match t.probe with Some probe -> Sim.Trace.emit probe event | None -> ()

let sender_view t =
  { Probe.cwnd = Sender.cwnd t.sender; metrics = Sender.metrics t.sender }

let send_data t ~seq ~retx =
  t.data_packets_sent <- t.data_packets_sent + 1;
  if probing t then
    emit_event t
      (Probe.Sent { time = Sim.Engine.now t.engine; flow = t.flow; seq; retx });
  let packet =
    Net.Network.make_packet t.network ~flow:t.flow ~src:(Net.Node.id t.src)
      ~dst:(Net.Node.id t.dst) ~size:Config.mss
      ~route:(t.route_data ())
      ~born:(Sim.Engine.now t.engine)
      (Types.Data { seq; retx })
  in
  Net.Network.originate t.network ~from:t.src packet

let send_ack t ack =
  if probing t then
    emit_event t
      (Probe.Ack_at_sink
         { time = Sim.Engine.now t.engine; flow = t.flow; ack });
  let packet =
    Net.Network.make_packet t.network ~flow:t.flow ~src:(Net.Node.id t.dst)
      ~dst:(Net.Node.id t.src) ~size:ack_size
      ~route:(t.route_ack ())
      ~born:(Sim.Engine.now t.engine)
      (Types.Ack ack)
  in
  Net.Network.originate t.network ~from:t.dst packet

let note_finished t =
  if t.finished_at = None && Sender.finished t.sender then begin
    t.finished_at <- Some (Sim.Engine.now t.engine);
    Array.iter
      (function
        | Some tm -> Sim.Engine.cancel_timer t.engine tm
        | None -> ())
      t.timer_cells;
    (* The app-drain timer deliberately survives completion: the
       application still reads out whatever the socket holds, and a
       standing zero window still gets its reopen announcement before
       the receiver quiesces (see [on_app_drain]). *)
    match t.on_finish with Some f -> f () | None -> ()
  end

(* True if the undrained batch contains a [Set_timer]/[Cancel_timer]
   for [key]. Any such entry was emitted by an event the engine
   processed before this one (same instant, earlier rank), so under the
   old execute-immediately semantics it would already have replaced or
   cancelled the armament that is firing now — the fire must be
   suppressed to keep batching invisible to the sender. *)
let batch_touches_key t key =
  let buf = t.buf in
  let n = Action_buffer.length buf in
  let touched = ref false in
  for i = 0 to n - 1 do
    if
      Action_buffer.op buf i >= Action_buffer.op_set_timer
      && Action_buffer.arg buf i = key
    then touched := true
  done;
  !touched

(* A sender timer key's cell, allocated on first use with a closure
   that fires that key. *)
let rec timer_cell t key =
  if key >= Array.length t.timer_cells then begin
    let bigger = Array.make (key + 1) None in
    Array.blit t.timer_cells 0 bigger 0 (Array.length t.timer_cells);
    t.timer_cells <- bigger
  end;
  match t.timer_cells.(key) with
  | Some tm -> tm
  | None ->
    let tm = Sim.Engine.make_timer t.engine (fun () -> fire_timer t key) in
    t.timer_cells.(key) <- Some tm;
    tm

(* Execute everything the sender buffered during the current instant.
   Sends go out in emission order. Timer operations coalesce last-wins
   per key: arming replaces any pending armament of the same cell, so
   only the final [Set_timer]/[Cancel_timer] per key needs to touch the
   wheel — this is where batching N same-tick ACKs saves N-1 rearm
   round-trips. Executing timers after sends is equivalent: both happen
   at the same instant and a timer's delay is relative to the (shared)
   current clock. *)
and drain_actions t =
  let buf = t.buf in
  let n = Action_buffer.length buf in
  if n > 0 then begin
    for i = 0 to n - 1 do
      let op = Action_buffer.op buf i in
      if op = Action_buffer.op_send then
        send_data t ~seq:(Action_buffer.arg buf i) ~retx:false
      else if op = Action_buffer.op_send_retx then
        send_data t ~seq:(Action_buffer.arg buf i) ~retx:true
    done;
    let seen = ref 0 in
    for i = n - 1 downto 0 do
      let op = Action_buffer.op buf i in
      if op >= Action_buffer.op_set_timer then begin
        let key = Action_buffer.arg buf i in
        let bit = 1 lsl key in
        if !seen land bit = 0 then begin
          seen := !seen lor bit;
          if op = Action_buffer.op_set_timer then
            (* [arm_timer_ns] rearms in place, cancelling any pending
               armament of the same cell. *)
            Sim.Engine.arm_timer_ns t.engine (timer_cell t key)
              ~delay:(Action_buffer.delay_ns buf i)
          else if key < Array.length t.timer_cells then (
            match t.timer_cells.(key) with
            | Some tm -> Sim.Engine.cancel_timer t.engine tm
            | None -> ())
        end
      end
    done;
    Action_buffer.clear buf
  end;
  note_finished t

(* Defer the drain to the end of the current instant, so further
   same-instant sender events append to the same batch — unless the
   sender just finished, in which case drain now so [finished_at] and
   the timer cancellations land immediately. *)
and arm_flush t =
  if Sender.finished t.sender then drain_actions t
  else if not t.flush_armed then begin
    t.flush_armed <- true;
    Sim.Engine.at_instant_end t.engine t.flush_fn
  end

(* [instrumented t make run] runs a sender handler and, when probing,
   publishes its envelope event — snapshots from either side of the
   handler plus the actions it appended — BEFORE any action executes,
   so that [Sent] events land after the envelope that authorised them
   (see {!Probe}). Sender state does not change during action execution,
   so the post-handler snapshot is already final. *)
and instrumented t make run =
  if probing t then begin
    let mark = Action_buffer.length t.buf in
    let before = sender_view t in
    run t.buf;
    let after = sender_view t in
    let actions = Action_buffer.to_list_from t.buf mark in
    emit_event t (make ~before ~after ~actions)
  end
  else run t.buf;
  arm_flush t

(* The engine has already cleared the cell when this runs, so a handler
   issuing [Set_timer] for its own key rearms a clean slot. *)
and fire_timer t key =
  if Action_buffer.length t.buf > 0 && batch_touches_key t key then ()
  else begin
    t.timer_fires <- t.timer_fires + 1;
    let now = Sim.Engine.now t.engine in
    if probing t then
      instrumented t
        (fun ~before ~after ~actions ->
          Probe.Timer_fired
            { time = now; flow = t.flow; key; before; after; actions })
        (fun buf -> Sender.on_timer t.sender ~now ~key buf)
    else begin
      Sender.on_timer t.sender ~now ~key t.buf;
      arm_flush t
    end
  end

let cancel_delack t =
  match t.delack_cell with
  | Some tm -> Sim.Engine.cancel_timer t.engine tm
  | None -> ()

let flush_pending_ack t =
  match t.pending_ack with
  | Some ack ->
    t.pending_ack <- None;
    cancel_delack t;
    send_ack t ack
  | None -> ()

let on_delack t =
  t.delack_timeouts <- t.delack_timeouts + 1;
  flush_pending_ack t

let delack_cell t =
  match t.delack_cell with
  | Some tm -> tm
  | None ->
    let tm = Sim.Engine.make_timer t.engine (fun () -> on_delack t) in
    t.delack_cell <- Some tm;
    tm

(* Keep the application reader ticking while the socket holds unread
   data or a zero window stands unreopened. *)
let rec maybe_arm_drain t =
  if t.drain_period > 0. && Receiver.needs_drain t.receiver then begin
    let tm = drain_cell t in
    if not (Sim.Engine.timer_armed tm) then
      Sim.Engine.arm_timer t.engine tm ~delay:t.drain_period
  end

and drain_cell t =
  match t.drain_cell with
  | Some tm -> tm
  | None ->
    let tm = Sim.Engine.make_timer t.engine (fun () -> on_app_drain t) in
    t.drain_cell <- Some tm;
    tm

(* One paced application read. *)
and on_app_drain t =
  Receiver.app_drain t.receiver;
  (match Receiver.window_update t.receiver with
  | Some ack ->
    (* The reopen announcement is cumulative and fresher than any
       deferred acknowledgement. *)
    t.pending_ack <- None;
    cancel_delack t;
    t.window_updates_sent <- t.window_updates_sent + 1;
    send_ack t ack
  | None -> ());
  (* After completion, once the socket is fully read out, drop the
     standing zero-window flag (the reopen just went out above) so
     the drain timer winds down and the engine can go idle. *)
  if t.finished_at <> None then Receiver.quiesce t.receiver;
  maybe_arm_drain t

let on_data_arrival t packet =
  (match packet.Net.Packet.payload with
  | Types.Data { seq; retx } -> (
    (* The sketch taps the raw wire arrival — a switch cannot tell
       duplicates or about-to-be-dropped segments apart, so neither
       does the detector. *)
    (match t.sketch with
    | Some sk -> Obs.Reorder_sketch.observe sk ~flow:t.flow ~seq
    | None -> ());
    let rcv_next_before = Receiver.rcv_next t.receiver in
    let now = Sim.Engine.now t.engine in
    let disposition = Receiver.receive t.receiver ~retx ~now ~seq () in
    if probing t then begin
      let ack =
        match disposition with
        | Receiver.Ack_now a | Receiver.Defer a | Receiver.Drop a -> a
      in
      emit_event t
        (Probe.Data_at_sink
           { time = now;
             flow = t.flow;
             seq;
             retx;
             dup = ack.Types.dsack <> None;
             buf_drop =
               (match disposition with Receiver.Drop _ -> true | _ -> false);
             rcv_next_before;
             rcv_next_after = Receiver.rcv_next t.receiver })
    end;
    (match disposition with
    | Receiver.Ack_now ack | Receiver.Drop ack ->
      (* Supersedes any deferred acknowledgement (the new one is
         cumulative). A socket drop acknowledges immediately: the
         shrunken window must reach the sender at once. *)
      t.pending_ack <- None;
      cancel_delack t;
      send_ack t ack
    | Receiver.Defer ack ->
      t.pending_ack <- Some ack;
      let tm = delack_cell t in
      if not (Sim.Engine.timer_armed tm) then
        Sim.Engine.arm_timer t.engine tm ~delay:delack_timeout);
    maybe_arm_drain t)
  | _ -> ());
  (* The payload has been fully consumed (the ack record, if any, is a
     separate heap block), so the record can go back to the pool. *)
  Net.Network.release_packet t.network packet

let on_ack_arrival t packet =
  (match packet.Net.Packet.payload with
  | Types.Ack ack ->
    let now = Sim.Engine.now t.engine in
    if probing t then
      instrumented t
        (fun ~before ~after ~actions ->
          Probe.Ack_at_source
            { time = now; flow = t.flow; ack; before; after; actions })
        (fun buf -> Sender.on_ack t.sender ~now ack buf)
    else begin
      Sender.on_ack t.sender ~now ack t.buf;
      arm_flush t
    end
  | _ -> ());
  Net.Network.release_packet t.network packet

let drain_period config =
  match config.Config.rcv_app_rate with Some rate -> 1. /. rate | None -> 0.

let create ?probe ?sketch ?on_finish network ~flow ~src ~dst ~sender ~config
    ~route_data ~route_ack () =
  Config.validate config;
  let engine = Net.Network.engine network in
  let t =
    { network;
      engine;
      config;
      flow;
      src;
      dst;
      sender = Sender.pack sender config;
      receiver = Receiver.create config;
      route_data;
      route_ack;
      started = false;
      data_packets_sent = 0;
      timer_fires = 0;
      delack_timeouts = 0;
      finished_at = None;
      pending_ack = None;
      buf = Action_buffer.create ();
      flush_armed = false;
      flush_fn = ignore;
      probe;
      sketch;
      on_finish;
      timer_cells = Array.make 4 None;
      delack_cell = None;
      drain_period = drain_period config;
      drain_cell = None;
      window_updates_sent = 0;
      data_handler = ignore;
      ack_handler = ignore }
  in
  t.flush_fn <-
    (fun () ->
      t.flush_armed <- false;
      drain_actions t);
  t.data_handler <- on_data_arrival t;
  t.ack_handler <- on_ack_arrival t;
  Net.Node.attach dst ~flow t.data_handler;
  Net.Node.attach src ~flow t.ack_handler;
  t

let armed = function Some tm -> Sim.Engine.timer_armed tm | None -> false

(* Nothing of the finished transfer may still run against the
   connection once it is re-keyed: no flush of its action buffer, no
   deferred acknowledgement, no armed timer cell. *)
let reusable t =
  Sender.finished t.sender
  && (not t.flush_armed)
  && t.pending_ack = None
  && (not (armed t.delack_cell))
  && (not (armed t.drain_cell))
  && not (Array.exists armed t.timer_cells)

let reuse t ~flow ~config =
  if not (reusable t) then
    invalid_arg "Connection.reuse: transfer unfinished or still pending";
  Config.validate config;
  Net.Node.detach t.dst ~flow:t.flow;
  Net.Node.detach t.src ~flow:t.flow;
  t.flow <- flow;
  t.config <- config;
  Sender.reset t.sender config;
  Receiver.reset t.receiver config;
  t.started <- false;
  t.data_packets_sent <- 0;
  t.timer_fires <- 0;
  t.delack_timeouts <- 0;
  t.finished_at <- None;
  t.drain_period <- drain_period config;
  t.window_updates_sent <- 0;
  Net.Node.attach t.dst ~flow t.data_handler;
  Net.Node.attach t.src ~flow t.ack_handler

let start t ~at =
  if t.started then invalid_arg "Connection.start: already started";
  t.started <- true;
  Sim.Engine.schedule_at t.engine ~time:at (fun () ->
      let now = Sim.Engine.now t.engine in
      Sender.start t.sender ~now t.buf;
      arm_flush t)

let sender_name t = Sender.name t.sender

let received_segments t = Receiver.in_order_segments t.receiver

let received_bytes t = received_segments t * Config.mss

let cwnd t = Sender.cwnd t.sender

let finished t = Sender.finished t.sender

let finished_at t = t.finished_at

let data_packets_sent t = t.data_packets_sent

let receiver_duplicates t = Receiver.duplicates t.receiver

let receiver_buffered t = Receiver.buffered t.receiver

let receiver_reorder_depth t = Receiver.reorder_depth t.receiver

let receiver_reorder t = Receiver.reorder t.receiver

let receiver_buffer t = Receiver.buffer t.receiver

let receiver_buf_drops t = Receiver.buf_drops t.receiver

let receiver_zero_windows t = Receiver.zero_windows t.receiver

let window_updates_sent t = t.window_updates_sent

let timer_fires t = t.timer_fires

let delack_timeouts t = t.delack_timeouts

let sender_metrics t = Sender.metrics t.sender
