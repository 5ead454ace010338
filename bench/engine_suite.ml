(* Engine-only events/sec microbenchmarks: raw scheduler churn with no
   figure workloads, no network and no TCP — the number that isolates
   the cost of scheduling, dispatching and (for the timer scenario)
   the timing wheel itself. Print-only (`bench/main.exe engine`): a
   single wall-clock reading on a shared host cannot tell a regression
   from noise, so no gate compares it with a stored number. The
   regressions a speed floor here was meant to catch — a box back on
   the dispatch path, a per-event closure — show up exactly in the
   allocation gate instead.

   Each scenario warms up first (wheel entry and due-heap growth,
   free-list filling are one-time costs), then measures a fixed number
   of events. Both wall-clock and GC-allocated bytes are recorded: the
   bytes/event column is what keeps the "schedule + dispatch allocates
   nothing beyond its boxed float arguments" claim honest. *)

type measurement = {
  name : string;
  events : int;
  wall_s : float;
  events_per_s : float;
  allocated_bytes : float;
  bytes_per_event : float;
}

(* [measure name engine warmup run] runs [warmup ()], then snapshots
   the engine's executed-event counter, GC counter and wall-clock
   around [run ()]. *)
let measure name engine warmup run =
  warmup ();
  Gc.full_major ();
  let events0 = Sim.Engine.events_executed engine in
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  run ();
  let wall_s = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let allocated_bytes = Gc.allocated_bytes () -. bytes0 in
  let events = Sim.Engine.events_executed engine - events0 in
  { name;
    events;
    wall_s;
    events_per_s = float_of_int events /. Float.max wall_s 1e-9;
    allocated_bytes;
    bytes_per_event =
      (if events = 0 then 0. else allocated_bytes /. float_of_int events) }

(* Closure churn: one self-rescheduling closure, the minimal
   schedule/pop/dispatch cycle on the wheel. *)
let closure_churn () =
  let engine = Sim.Engine.create () in
  let budget = ref 0 in
  let rec tick () =
    if !budget > 0 then begin
      decr budget;
      Sim.Engine.schedule_after engine ~delay:1e-5 tick
    end
  in
  let start n =
    budget := n;
    tick ();
    Sim.Engine.run_to_completion engine
  in
  measure "closure-churn" engine
    (fun () -> start 50_000)
    (fun () -> start 1_000_000)

(* Pipeline churn: every tick schedules two extra events at computed
   (dynamic-float) delays, one short and one long — the schedule shape
   of a link transmission (completion + arrival), which keeps ~100 events
   in flight across the wheel's slots and its due heap. *)
let pipeline_churn () =
  let engine = Sim.Engine.create () in
  let budget = ref 0 in
  let nop () = () in
  let size = ref 1000 in
  let rec tick () =
    if !budget > 0 then begin
      decr budget;
      let tx = float_of_int !size *. 8. /. 1e9 in
      Sim.Engine.schedule_after engine ~delay:tx nop;
      Sim.Engine.schedule_after engine ~delay:(tx +. 0.001) nop;
      Sim.Engine.schedule_after engine ~delay:1e-5 tick
    end
  in
  let start n =
    budget := n;
    tick ();
    Sim.Engine.run_to_completion engine
  in
  measure "pipeline-churn" engine
    (fun () -> start 20_000)
    (fun () -> start 400_000)

(* Timer churn: 1024 recurring timer cells, each rearming itself on
   fire with its own period. This is the RTO / delayed-ack shape the
   timing wheel exists for. *)
let timer_churn () =
  let engine = Sim.Engine.create () in
  let k = 1024 in
  let stop_at = ref 0. in
  let cells =
    Array.init k (fun i ->
        let period = 1e-3 +. (float_of_int i *. 1.7e-5) in
        let timer = ref None in
        let fire () =
          match !timer with
          | Some tm when Sim.Engine.now engine < !stop_at ->
            Sim.Engine.arm_timer engine tm ~delay:period
          | Some _ | None -> ()
        in
        let tm = Sim.Engine.make_timer engine fire in
        timer := Some tm;
        (tm, period))
  in
  let run ~sim_s =
    stop_at := Sim.Engine.now engine +. sim_s;
    Array.iter
      (fun (tm, period) -> Sim.Engine.arm_timer engine tm ~delay:period)
      cells;
    Sim.Engine.run_to_completion engine
  in
  measure "timer-churn-wheel" engine
    (fun () -> run ~sim_s:0.1)
    (fun () -> run ~sim_s:2.0)

let run_all () = [ closure_churn (); pipeline_churn (); timer_churn () ]

let pp_measurement m =
  Printf.printf
    "  %-18s %9d events  %7.3f s wall  %9.0f ev/s  %6.1f B/event\n%!"
    m.name m.events m.wall_s m.events_per_s m.bytes_per_event
