(* Conservative-lookahead parallel conductor over N independent
   engines.

   One engine per shard; shard 0 runs inline on the conductor's domain,
   shards 1..N-1 on persistent worker domains. Time advances in
   windows: the conductor picks a target, every shard runs its own
   engine to the target, and at the barrier the conductor drains all
   channel rings and schedules the carried closures into the
   destination engines. The window width is the minimum channel
   latency, so a message sent during a window (arrival = sender's now +
   latency) can never land at or before the horizon the receiver has
   already passed — the classic conservative-lookahead argument, spelled
   out in DESIGN.md §14.

   Determinism: each shard is an ordinary single-domain engine, so its
   execution is deterministic given its inputs; the only cross-shard
   inputs are drained messages, which the conductor sorts on the total
   order (time, channel index, per-channel stamp) before scheduling.
   Channel indices follow creation order and stamps follow send order,
   so two runs of the same scenario drain identically — no wall-clock,
   domain id or scheduling race ever feeds the simulation.

   Worker handshake: one mutex + condition per worker. The conductor
   bumps [w_epoch] with a new target; the worker runs its engine to the
   target, publishes [w_done = epoch], and waits for the next epoch.
   Blocking (rather than spinning) matters on machines with fewer cores
   than shards — correctness never depends on real parallelism. *)

type msg = {
  m_time : Time.t;
  m_stamp : int;
  m_run : unit -> unit;
}

type channel = {
  ch_index : int;
  ch_src : int;
  ch_dst : int;
  ch_latency : Time.t;
  ch_ring : msg Spsc_ring.t;
  (* Messages ever sent; producer-side. Doubles as the FIFO stamp. *)
  mutable ch_stamp : int;
}

type worker = {
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  mutable w_epoch : int;  (* conductor bumps with each new target *)
  mutable w_target : Time.t;
  mutable w_done : int;  (* last epoch the worker completed *)
  mutable w_stop : bool;
  mutable w_error : exn option;
}

type t = {
  engines : Engine.t array;
  mutable channels_rev : channel list;
  mutable channel_count : int;
  mutable messages : int;  (* drained and scheduled; conductor-side *)
  mutable windows : int;
  mutable running : bool;
}

let create ~domains ?(timer_granularity = 1e-3) () =
  if domains < 1 then invalid_arg "Sharded_engine.create: domains must be >= 1";
  { engines = Array.init domains (fun _ -> Engine.create ~timer_granularity ());
    channels_rev = [];
    channel_count = 0;
    messages = 0;
    windows = 0;
    running = false }

let domains t = Array.length t.engines

let engine t shard =
  if shard < 0 || shard >= Array.length t.engines then
    invalid_arg "Sharded_engine.engine: shard out of range";
  t.engines.(shard)

let channel t ~src ~dst ~latency ?(capacity = 16384) () =
  let n = Array.length t.engines in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Sharded_engine.channel: shard out of range";
  if src = dst then
    invalid_arg
      "Sharded_engine.channel: src = dst (same-shard hand-offs belong on the \
       shard's own engine)";
  if not (latency > 0.) then
    invalid_arg "Sharded_engine.channel: latency must be > 0 (it is the lookahead)";
  let latency_ns = Time.of_sec latency in
  if latency_ns <= 0 then
    invalid_arg
      "Sharded_engine.channel: latency rounds to zero nanoseconds (below the \
       time core's resolution)";
  let ch =
    { ch_index = t.channel_count;
      ch_src = src;
      ch_dst = dst;
      ch_latency = latency_ns;
      ch_ring = Spsc_ring.create ~capacity;
      ch_stamp = 0 }
  in
  t.channel_count <- t.channel_count + 1;
  t.channels_rev <- ch :: t.channels_rev;
  ch

let channel_latency ch = Time.to_sec ch.ch_latency

let overflow ch =
  failwith
    (Printf.sprintf
       "Sharded_engine: channel %d (shard %d -> %d) ring overflow at capacity \
        %d — size the channel for the scenario's per-window burst"
       ch.ch_index ch.ch_src ch.ch_dst
       (Spsc_ring.capacity ch.ch_ring))

(* Arrival time is [now_ns(src) + latency_ns] — the same integer sum a
   local hand-off computes ([Engine.schedule_after ~delay:latency] adds
   [Time.of_sec latency], which is exactly [ch_latency]), so a topology
   built with channels is bit-identical in time to one built with local
   hand-offs. Must be called from code running on the source shard (its
   engine's clock is read without synchronization). *)
let send t ch f =
  let time = Time.add (Engine.now_ns t.engines.(ch.ch_src)) ch.ch_latency in
  let stamp = ch.ch_stamp in
  ch.ch_stamp <- stamp + 1;
  if not (Spsc_ring.try_push ch.ch_ring { m_time = time; m_stamp = stamp; m_run = f })
  then overflow ch

let send_at t ch ~time f =
  let now = Engine.now_ns t.engines.(ch.ch_src) in
  let time = Time.of_sec time in
  if time < Time.add now ch.ch_latency then
    invalid_arg
      (Printf.sprintf
         "Sharded_engine.send_at: time %g violates the channel's lookahead \
          (now %g + latency %g)"
         (Time.to_sec time) (Time.to_sec now) (Time.to_sec ch.ch_latency));
  let stamp = ch.ch_stamp in
  ch.ch_stamp <- stamp + 1;
  if not (Spsc_ring.try_push ch.ch_ring { m_time = time; m_stamp = stamp; m_run = f })
  then overflow ch

let lookahead_ns t =
  List.fold_left (fun acc ch -> Time.min acc ch.ch_latency) Time.never
    t.channels_rev

let lookahead t = Time.to_sec (lookahead_ns t)

let messages_sent t =
  List.fold_left (fun acc ch -> acc + ch.ch_stamp) 0 t.channels_rev

let messages_delivered t = t.messages

let windows t = t.windows

let events_executed t =
  Array.fold_left (fun acc e -> acc + Engine.events_executed e) 0 t.engines

let timer_arms t =
  Array.fold_left (fun acc e -> acc + Engine.timer_arms e) 0 t.engines

let timer_cancels t =
  Array.fold_left (fun acc e -> acc + Engine.timer_cancels e) 0 t.engines

let timer_fires t =
  Array.fold_left (fun acc e -> acc + Engine.timer_fires e) 0 t.engines

let pending t =
  Array.fold_left (fun acc e -> acc + Engine.pending e) 0 t.engines
  + List.fold_left
      (fun acc ch -> acc + Spsc_ring.length ch.ch_ring)
      0 t.channels_rev

(* Drain every channel ring and schedule the messages into their
   destination engines in the canonical (time, channel, stamp) order.
   Conductor-only, with all workers parked at the barrier — the atomics
   in the ring plus the barrier's mutex hand-offs order the producers'
   writes before these reads. *)
let drain t =
  let channels = List.rev t.channels_rev in
  let msgs = ref [] in
  List.iter
    (fun ch ->
      let rec pop () =
        match Spsc_ring.try_pop ch.ch_ring with
        | Some m ->
          msgs := (m, ch) :: !msgs;
          pop ()
        | None -> ()
      in
      pop ())
    channels;
  let sorted =
    List.sort
      (fun (a, ca) (b, cb) ->
        let c = compare (a.m_time : int) b.m_time in
        if c <> 0 then c
        else
          let c = compare ca.ch_index cb.ch_index in
          if c <> 0 then c else compare a.m_stamp b.m_stamp)
      !msgs
  in
  List.iter
    (fun (m, ch) ->
      t.messages <- t.messages + 1;
      ignore
        (Engine.schedule_event_at_ns t.engines.(ch.ch_dst) ~time:m.m_time
           (Engine.Closure m.m_run)))
    sorted

let earliest t =
  Array.fold_left
    (fun acc e -> Time.min acc (Engine.next_event_time_ns e))
    Time.never t.engines

let run t ~until =
  if t.running then invalid_arg "Sharded_engine.run: already running";
  let until = Time.of_sec until in
  let n = Array.length t.engines in
  if n = 1 then begin
    (* Single domain: the plain engine, verbatim. [channel] refuses
       same-shard endpoints, so there is nothing to drain. *)
    t.running <- true;
    Fun.protect
      ~finally:(fun () -> t.running <- false)
      (fun () -> Engine.run_ns t.engines.(0) ~until)
  end
  else begin
    t.running <- true;
    let window = lookahead_ns t in
    let workers =
      Array.init (n - 1) (fun _ ->
          { w_mutex = Mutex.create ();
            w_cond = Condition.create ();
            w_epoch = 0;
            w_target = 0;
            w_done = 0;
            w_stop = false;
            w_error = None })
    in
    let worker_loop i () =
      let w = workers.(i) in
      let eng = t.engines.(i + 1) in
      let rec loop last =
        Mutex.lock w.w_mutex;
        while (not w.w_stop) && w.w_epoch = last do
          Condition.wait w.w_cond w.w_mutex
        done;
        let stop = w.w_stop in
        let epoch = w.w_epoch in
        let target = w.w_target in
        Mutex.unlock w.w_mutex;
        if not stop then begin
          (try Engine.run_ns eng ~until:target
           with e -> w.w_error <- Some e);
          Mutex.lock w.w_mutex;
          w.w_done <- epoch;
          Condition.broadcast w.w_cond;
          Mutex.unlock w.w_mutex;
          loop epoch
        end
      in
      loop 0
    in
    let spawned = Array.init (n - 1) (fun i -> Domain.spawn (worker_loop i)) in
    let stop_all () =
      Array.iter
        (fun w ->
          Mutex.lock w.w_mutex;
          w.w_stop <- true;
          Condition.broadcast w.w_cond;
          Mutex.unlock w.w_mutex)
        workers;
      Array.iter Domain.join spawned
    in
    Fun.protect
      ~finally:(fun () ->
        stop_all ();
        t.running <- false)
      (fun () ->
        let error = ref None in
        let horizon = ref (Engine.now_ns t.engines.(0)) in
        let finished = ref false in
        (* Messages pushed before [run] (no worker is live yet) must be
           in the engines before the first target is computed, or an
           idle-skipping first window could jump past their arrival. *)
        drain t;
        while not !finished do
          (* Window target: at least one lookahead past the earliest
             pending work (skipping idle gaps), capped at [until]. *)
          let target =
            if window = Time.never then until
            else
              Time.min until (Time.add (Time.max !horizon (earliest t)) window)
          in
          let target = Time.max target !horizon in
          t.windows <- t.windows + 1;
          Array.iter
            (fun w ->
              Mutex.lock w.w_mutex;
              w.w_epoch <- w.w_epoch + 1;
              w.w_target <- target;
              Condition.broadcast w.w_cond;
              Mutex.unlock w.w_mutex)
            workers;
          (try Engine.run_ns t.engines.(0) ~until:target
           with e -> if !error = None then error := Some e);
          (* Barrier: wait for every worker's epoch, then collect any
             worker failure (published before [w_done]). *)
          Array.iter
            (fun w ->
              Mutex.lock w.w_mutex;
              while w.w_done < w.w_epoch do
                Condition.wait w.w_cond w.w_mutex
              done;
              Mutex.unlock w.w_mutex;
              match w.w_error with
              | Some e when !error = None ->
                error := Some e;
                w.w_error <- None
              | _ -> ())
            workers;
          match !error with
          | Some _ -> finished := true
          | None ->
            drain t;
            horizon := target;
            if target >= until then finished := true
        done;
        match !error with Some e -> raise e | None -> ())
  end
