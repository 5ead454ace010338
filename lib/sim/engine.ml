(* A recurring-timer cell. [t_seq] is the engine-global rank of the
   pending armament (-1 when unarmed); [t_widx] is that armament's
   wheel entry index, meaningful only while [t_seq >= 0]. [t_fire] is
   the closure every armament files on the wheel, built once per cell:
   it clears the cell, counts the fire and runs the handler. *)
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
  (* The one scheduling substrate: every event, one-shot closure or
     timer-cell firing, is a wheel entry keyed on (time, rank), and
     every rank comes from [next_seq]. *)
  wheel : Timer_wheel.t;
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
  ignore (Timer_wheel.arm t.wheel ~time ~seq:(next_seq t) f)

let schedule_after_ns t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  ignore
    (Timer_wheel.arm t.wheel ~time:(Time.add t.clock delay) ~seq:(next_seq t) f)

let schedule_at t ~time f = schedule_at_ns t ~time:(Time.of_sec time) f

let schedule_after t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule_after_ns t ~delay:(Time.of_sec_delay delay) f

(* --- timer cells ----------------------------------------------------- *)

(* Firing clears the cell *before* running the handler, so a handler
   that rearms its own timer starts from an unarmed cell — no stale
   bookkeeping to race. *)
let make_timer t f =
  let rec tm =
    { t_seq = -1;
      t_widx = -1;
      t_fire =
        (fun () ->
          tm.t_seq <- -1;
          t.timer_fires <- t.timer_fires + 1;
          f ()) }
  in
  tm

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
  tm.t_widx <-
    Timer_wheel.arm t.wheel ~time:(Time.add t.clock delay) ~seq tm.t_fire

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

(* --- run loop -------------------------------------------------------- *)

(* Pop wheel entries in (time, rank) order while one is due by [until],
   setting the clock to each entry's time before running it. While
   end-of-instant flushes are pending, only entries at the current
   instant may run (every entry lies at or after the clock, so "due by
   the clock" means "at the clock"); once none is left the flushes run,
   and what they schedule is picked up by the next iteration. All
   times are {!Time.t} integer nanoseconds, so the loop never boxes. *)
let run_loop t ~until =
  let w = t.wheel in
  let continue = ref true in
  while !continue do
    let up_to = if t.flush_len > 0 && t.clock < until then t.clock else until in
    if Timer_wheel.due w ~up_to then begin
      let time = Timer_wheel.head_time w in
      let f = Timer_wheel.pop_due w in
      t.clock <- time;
      t.events_executed <- t.events_executed + 1;
      f ()
    end
    else if t.flush_len > 0 then run_flushes t
    else continue := false
  done

let run_ns t ~until =
  run_loop t ~until;
  if until < Time.never && until > t.clock then t.clock <- until

let run t ~until = run_ns t ~until:(Time.of_sec until)

let run_to_completion t = run_loop t ~until:Time.never
