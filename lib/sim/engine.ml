(* A recurring-timer cell. [t_seq] is the engine-global rank of the
   pending armament (-1 when unarmed); [t_widx] is that armament's
   wheel entry index, meaningful only while [t_seq >= 0]. *)
type timer = {
  mutable t_seq : int;
  mutable t_widx : int;
  t_fire : unit -> unit;
}

let nothing () = ()

type t = {
  (* The clock is {!Time.t} integer nanoseconds in a plain mutable
     field: int stores never box (the float-clock ancestor needed a
     one-slot floatarray to avoid boxing per executed event). *)
  mutable clock : Time.t;
  (* One-shot events: closures, run once, never cancelled. *)
  queue : (unit -> unit) Event_queue.t;
  (* Second scheduling substrate: high-churn recurring timers. Both
     substrates draw ranks from [next_seq], so the merged pop order is
     exactly the (time, rank) order a single heap would produce. *)
  wheel : timer Timer_wheel.t;
  mutable next_seq : int;
  (* End-of-instant flush hooks (see [at_instant_end]): closures to run
     after every event at the current instant has executed, before the
     clock advances past it. Stored in a flat stack reused across
     instants, so registering is two stores. *)
  mutable flushes : (unit -> unit) array;
  mutable flush_len : int;
  (* Scheduler counters, for the scale scenario and the benchmarks. *)
  mutable events_executed : int;
  mutable timer_arms : int;
  mutable timer_cancels : int;
  mutable timer_fires : int;
}

let create ?(timer_granularity = 1e-3) () =
  let granularity =
    if timer_granularity > 0. then Time.of_sec timer_granularity
    else Time.of_sec 1e-3
  in
  let granularity = if granularity > 0 then granularity else 1 in
  { clock = 0;
    queue = Event_queue.create ();
    wheel = Timer_wheel.create ~granularity ();
    next_seq = 0;
    flushes = [||];
    flush_len = 0;
    events_executed = 0;
    timer_arms = 0;
    timer_cancels = 0;
    timer_fires = 0 }

let[@inline] now_ns t = t.clock

let now t = Time.to_sec t.clock

let events_executed t = t.events_executed

let timer_arms t = t.timer_arms

let timer_cancels t = t.timer_cancels

let timer_fires t = t.timer_fires

let next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_at_ns t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g"
         (Time.to_sec time) (now t));
  Event_queue.push t.queue ~time ~seq:(next_seq t) f

let schedule_after_ns t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  Event_queue.push t.queue ~time:(Time.add t.clock delay) ~seq:(next_seq t) f

let schedule_at t ~time f = schedule_at_ns t ~time:(Time.of_sec time) f

let schedule_after t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule_after_ns t ~delay:(Time.of_sec_delay delay) f

(* --- timer cells ----------------------------------------------------- *)

let make_timer _t f = { t_seq = -1; t_widx = -1; t_fire = f }

let timer_armed tm = tm.t_seq >= 0

let cancel_timer t tm =
  if tm.t_seq >= 0 then begin
    t.timer_cancels <- t.timer_cancels + 1;
    Timer_wheel.cancel t.wheel tm.t_widx ~seq:tm.t_seq;
    tm.t_seq <- -1
  end

let arm_timer_ns t tm ~delay =
  if delay < 0 then invalid_arg "Engine.arm_timer: negative delay";
  if tm.t_seq >= 0 then cancel_timer t tm;
  let seq = next_seq t in
  tm.t_seq <- seq;
  t.timer_arms <- t.timer_arms + 1;
  tm.t_widx <- Timer_wheel.arm t.wheel ~time:(Time.add t.clock delay) ~seq tm

let arm_timer t tm ~delay =
  if delay < 0. then invalid_arg "Engine.arm_timer: negative delay";
  arm_timer_ns t tm ~delay:(Time.of_sec_delay delay)

(* --- end-of-instant flush hooks -------------------------------------- *)

let at_instant_end t f =
  let n = t.flush_len in
  if n = Array.length t.flushes then begin
    let bigger = Array.make (if n = 0 then 8 else 2 * n) nothing in
    Array.blit t.flushes 0 bigger 0 n;
    t.flushes <- bigger
  end;
  t.flushes.(n) <- f;
  t.flush_len <- n + 1

(* Run the registered flushes in registration order. A flush may
   schedule new events (at the current instant or later) and may
   register further flushes; those run in the same pass. Slots are
   cleared as they run so no closure is retained past its instant. *)
let run_flushes t =
  let i = ref 0 in
  while !i < t.flush_len do
    let f = t.flushes.(!i) in
    t.flushes.(!i) <- nothing;
    incr i;
    f ()
  done;
  t.flush_len <- 0

(* True iff some event is due exactly at the current clock — the
   condition under which pending flushes must keep waiting. Only
   evaluated when flushes are pending, which is rare relative to event
   dispatch. *)
let due_at_clock t =
  ((not (Event_queue.is_empty t.queue))
   && Event_queue.head_time t.queue = t.clock)
  || Timer_wheel.due t.wheel ~up_to:t.clock

(* --- run loop -------------------------------------------------------- *)

(* Batched two-substrate dispatcher. The slow per-event shape — call
   [Timer_wheel.due] and re-derive both substrate heads from scratch
   for every event — is replaced by runs:

   - While the wheel's due head is covered ([head_ready]: provably the
     wheel's global minimum, a couple of integer loads), events from
     both substrates are merged with direct head-key comparisons only.
     Handlers may push heap events, arm timers, and cancel timers
     sitting in the wheel's due bucket; [head_ready] re-checks liveness
     between pops.

   - When the wheel has nothing due, heap events are drained in a run
     while they lie strictly below the wheel's [lower_bound], without
     touching the wheel per event. Arming a timer can lower the bound,
     so the run is fenced by the [timer_arms] counter.

   The pop order is exactly the (time, rank) order a single shared heap
   would produce — the same invariant the per-event loop maintained,
   pinned by the single-list reference model in test/test_sim.ml and
   by the goldens.

   End-of-instant flushes thread through as fences: each run breaks
   before popping an event later than the current clock while flushes
   are pending, and the outer loop runs the flushes once nothing is due
   at the current instant (flushes may schedule new work at the
   instant, which the next iteration picks up). With no flushes pending
   — the overwhelmingly common state — every fence is a single int
   load.

   All times are {!Time.t} integer nanoseconds, so the merge
   comparisons, clock stores and until-checks below never box. *)
let run_loop t ~until =
  let q = t.queue in
  let w = t.wheel in
  let continue = ref true in
  while !continue do
    if t.flush_len > 0 && not (due_at_clock t) then run_flushes t
    else begin
      let qh = not (Event_queue.is_empty q) in
      let qt = if qh then Event_queue.head_time q else Time.never in
      let wlimit = if qt < until then qt else until in
      if Timer_wheel.due w ~up_to:wlimit then begin
        (* Wheel-covered run: merge on raw head keys until the due head
           stops being provably minimal (bucket exhausted or cursor
           coverage lost). *)
        let wrun = ref true in
        while !wrun do
          (* Handlers may cancel the entry sitting at the due head
             (dead entries keep intact keys but must never fire), so
             re-establish head liveness and coverage before every pop —
             [head_ready] is a skim plus two integer loads. *)
          if not (Timer_wheel.head_ready w) then wrun := false
          else begin
            let wt = Timer_wheel.head_time w in
            let qh = not (Event_queue.is_empty q) in
            let queue_first =
              qh
              && (let time = Event_queue.head_time q in
                  time < wt
                  || (time = wt
                      && Event_queue.head_seq q < Timer_wheel.head_seq w))
            in
            if queue_first then begin
              let time = Event_queue.head_time q in
              if t.flush_len > 0 && time <> t.clock then wrun := false
              else if time <= until then begin
                let f = Event_queue.pop_head q in
                t.clock <- time;
                t.events_executed <- t.events_executed + 1;
                f ()
              end
              else wrun := false
            end
            else if t.flush_len > 0 && wt <> t.clock then wrun := false
            else if wt <= until then begin
              (* Firing a timer clears its cell *before* running the
                 handler, so a handler that rearms its own timer starts
                 from an unarmed cell — no stale bookkeeping to race. *)
              let tm = Timer_wheel.pop_due w in
              t.clock <- wt;
              t.events_executed <- t.events_executed + 1;
              tm.t_seq <- -1;
              t.timer_fires <- t.timer_fires + 1;
              tm.t_fire ()
            end
            else wrun := false
          end
        done
      end
      else if qh && qt <= until then begin
        if t.flush_len > 0 && qt <> t.clock then
          (* Pending flushes and the next event is later: fall through
             to the outer loop, whose fence runs them. *)
          ()
        else begin
          (* Heap run: the wheel has nothing due by [wlimit], so heap
             events strictly below its lower bound are safe to drain
             without re-polling it. The first event is known due; arms
             during any handler invalidate the bound, so fence on the
             arm counter. *)
          let arms0 = t.timer_arms in
          let f = Event_queue.pop_head q in
          t.clock <- qt;
          t.events_executed <- t.events_executed + 1;
          f ();
          let bound = Timer_wheel.lower_bound w in
          let qrun = ref true in
          while !qrun do
            if t.timer_arms <> arms0 then qrun := false
            else if not (Event_queue.is_empty q) then begin
              let time = Event_queue.head_time q in
              if t.flush_len > 0 && time <> t.clock then qrun := false
              else if time < bound && time <= until then begin
                let f = Event_queue.pop_head q in
                t.clock <- time;
                t.events_executed <- t.events_executed + 1;
                f ()
              end
              else qrun := false
            end
            else qrun := false
          done
        end
      end
      else continue := false
    end
  done

let run_ns t ~until =
  run_loop t ~until;
  if until < Time.never && until > t.clock then t.clock <- until

let run t ~until = run_ns t ~until:(Time.of_sec until)

let run_to_completion t = run_loop t ~until:Time.never

let pending t = Event_queue.length t.queue + Timer_wheel.live t.wheel
