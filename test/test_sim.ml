(* Tests for the simulation substrate: Rng, Timer_wheel, Engine, Trace. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_split_deterministic () =
  let mk () = Sim.Rng.split (Sim.Rng.create 7) "flows" in
  let a = mk () and b = mk () in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same child" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_split_label_matters () =
  let parent = Sim.Rng.create 7 in
  let a = Sim.Rng.split parent "x" in
  let parent2 = Sim.Rng.create 7 in
  let b = Sim.Rng.split parent2 "y" in
  Alcotest.(check bool)
    "labels give different streams" true
    (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Sim.Rng.create 3 in
  let b = Sim.Rng.copy a in
  let x = Sim.Rng.bits64 a in
  let y = Sim.Rng.bits64 b in
  Alcotest.(check int64) "copy starts at same state" x y

let test_rng_float_mean () =
  let rng = Sim.Rng.create 11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Sim.Rng.float rng
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 13 in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Sim.Rng.exponential rng ~mean:2.5
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (abs_float (mean -. 2.5) < 0.1)

let test_rng_choose_weighted () =
  let rng = Sim.Rng.create 17 in
  let counts = [| 0; 0; 0 |] in
  let weights = [| 0.7; 0.2; 0.1 |] in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Sim.Rng.choose rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i w ->
      let observed = float_of_int counts.(i) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "weight %d respected" i)
        true
        (abs_float (observed -. w) < 0.02))
    weights

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 19 in
  let a = Array.init 50 Fun.id in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let rng_props =
  [ QCheck.Test.make ~name:"float in [0,1)" ~count:1000
      QCheck.(pair small_int unit)
      (fun (seed, ()) ->
        let rng = Sim.Rng.create seed in
        let x = Sim.Rng.float rng in
        x >= 0. && x < 1.);
    QCheck.Test.make ~name:"int below bound" ~count:1000
      QCheck.(pair small_int (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Sim.Rng.create seed in
        let x = Sim.Rng.int rng bound in
        x >= 0 && x < bound) ]

(* ------------------------------------------------------------------ *)
(* Event queue: the timing wheel every engine event rides              *)
(* ------------------------------------------------------------------ *)

(* Arm [entries] on a fresh wheel of [granularity] ns ticks, ranked as
   the engine ranks them (the i-th arm gets rank i), and drain it: the
   (head time, payload) pairs in pop order, the payload read back by
   running the popped closure. *)
let wheel_order ~granularity entries =
  let w = Sim.Timer_wheel.create ~granularity () in
  let ran = ref [] in
  List.iteri
    (fun seq (time, payload) ->
      ignore
        (Sim.Timer_wheel.arm w ~time ~seq (fun () -> ran := payload :: !ran)))
    entries;
  let times = ref [] in
  while Sim.Timer_wheel.due w ~up_to:Sim.Time.never do
    times := Sim.Timer_wheel.head_time w :: !times;
    Sim.Timer_wheel.pop_due w ()
  done;
  List.combine (List.rev !times) (List.rev !ran)

(* One-nanosecond ticks: distinct small times file in distinct slots,
   equal times share one. *)
let drain_ns_ticks entries = wheel_order ~granularity:1 entries

let test_queue_orders_by_time () =
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "a"); (2, "b"); (3, "c") ]
    (drain_ns_ticks [ (3, "c"); (1, "a"); (2, "b") ])

let test_queue_fifo_on_ties () =
  Alcotest.(check (list string))
    "insertion order" [ "first"; "second"; "third" ]
    (List.map snd
       (drain_ns_ticks [ (1, "first"); (1, "second"); (1, "third") ]))

let queue_props =
  [ QCheck.Test.make ~name:"pop returns times sorted" ~count:300
      QCheck.(list (int_bound 1000))
      (fun times ->
        let popped =
          List.map fst (drain_ns_ticks (List.map (fun t -> (t, ())) times))
        in
        popped = List.sort compare popped) ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_order () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note label () = log := label :: !log in
  Sim.Engine.schedule_at engine ~time:2. (note "b");
  Sim.Engine.schedule_at engine ~time:1. (note "a");
  Sim.Engine.schedule_at engine ~time:3. (note "c");
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_clock_advances () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule_at engine ~time:1.5 (fun () ->
      seen := Sim.Engine.now engine :: !seen);
  Sim.Engine.schedule_after engine ~delay:0.5 (fun () ->
      seen := Sim.Engine.now engine :: !seen);
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list (float 1e-12))) "clock at event times" [ 1.5; 0.5 ]
    !seen

let test_engine_run_until () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule_at engine ~time:1. (fun () -> incr fired);
  Sim.Engine.schedule_at engine ~time:5. (fun () -> incr fired);
  Sim.Engine.run engine ~until:2.;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock at until" 2. (Sim.Engine.now engine);
  Sim.Engine.run engine ~until:10.;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_rejects_past () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule_at engine ~time:5. (fun () -> ());
  Sim.Engine.run_to_completion engine;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time 1 is before now 5") (fun () ->
      Sim.Engine.schedule_at engine ~time:1. (fun () -> ()))

let test_engine_nested_scheduling () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_at engine ~time:1. (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule_after engine ~delay:1. (fun () ->
          log := "inner" :: !log));
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list string)) "nested order" [ "outer"; "inner" ]
    (List.rev !log);
  check_float "final clock" 2. (Sim.Engine.now engine)

(* A handler that has run must not stay reachable through the
   scheduler: a fired timer cell's handler (and through it, say, a
   finished connection) and a one-shot closure become garbage once
   their event has run, not when the wheel next reuses their slot. *)
let test_engine_releases_run_handlers () =
  let engine = Sim.Engine.create () in
  let probe = Weak.create 2 in
  let[@inline never] schedule () =
    let timer_block = Bytes.create 64 in
    let oneshot_block = Bytes.create 64 in
    Weak.set probe 0 (Some timer_block);
    Weak.set probe 1 (Some oneshot_block);
    let tm =
      Sim.Engine.make_timer engine (fun () ->
          ignore (Sys.opaque_identity timer_block))
    in
    Sim.Engine.arm_timer engine tm ~delay:0.5;
    Sim.Engine.schedule_at engine ~time:1. (fun () ->
        ignore (Sys.opaque_identity oneshot_block))
  in
  schedule ();
  Sim.Engine.run engine ~until:2.;
  Gc.full_major ();
  Alcotest.(check bool) "timer handler's block collected" false
    (Weak.check probe 0);
  Alcotest.(check bool) "one-shot closure's block collected" false
    (Weak.check probe 1);
  (* Read the engine after the collection, so it is live across it. *)
  Alcotest.(check int) "both events ran" 2 (Sim.Engine.events_executed engine)

(* ------------------------------------------------------------------ *)
(* Timer_wheel                                                         *)
(* ------------------------------------------------------------------ *)

let ns = Sim.Time.of_sec

(* Wheel entries are closures: [label s] records [s] in [last] when it
   runs, and [wheel_drain] runs each popped entry to read its label. *)
let last = ref ""

let label s () = last := s

let wheel_drain w ~up_to =
  let acc = ref [] in
  while Sim.Timer_wheel.due w ~up_to do
    let time = Sim.Timer_wheel.head_time w in
    let seq = Sim.Timer_wheel.head_seq w in
    Sim.Timer_wheel.pop_due w ();
    acc := (time, seq, !last) :: !acc
  done;
  List.rev !acc

let test_wheel_orders_by_key () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  (* Two entries land in the same level-0 slot (same millisecond tick):
     the mini-heap must still surface them in exact (time, seq) order. *)
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.5) ~seq:3 (label "d"));
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.0102) ~seq:2 (label "c"));
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.0101) ~seq:1 (label "b"));
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.0101) ~seq:0 (label "a"));
  Alcotest.(check (list (triple int int string)))
    "exact key order"
    [ (ns 0.0101, 0, "a"); (ns 0.0101, 1, "b"); (ns 0.0102, 2, "c");
      (ns 0.5, 3, "d") ]
    (wheel_drain w ~up_to:(ns 1.))

let test_wheel_due_respects_horizon () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.25) ~seq:0 (label "x"));
  Alcotest.(check bool) "not due early" false
    (Sim.Timer_wheel.due w ~up_to:(ns 0.2));
  Alcotest.(check bool) "due at its time" true
    (Sim.Timer_wheel.due w ~up_to:(ns 0.25));
  Sim.Timer_wheel.pop_due w ();
  Alcotest.(check string) "payload" "x" !last;
  Alcotest.(check bool) "empty after pop" false
    (Sim.Timer_wheel.due w ~up_to:(ns 10.))

let test_wheel_cancel () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.1) ~seq:0 (label "keep1"));
  let idx = Sim.Timer_wheel.arm w ~time:(ns 0.2) ~seq:1 (label "drop") in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.3) ~seq:2 (label "keep2"));
  Sim.Timer_wheel.cancel w idx ~seq:1;
  (* A stale (idx, seq) pair must be a no-op, not a wild cancel. *)
  Sim.Timer_wheel.cancel w idx ~seq:1;
  Sim.Timer_wheel.cancel w idx ~seq:99;
  Alcotest.(check int) "live excludes cancelled" 2 (Sim.Timer_wheel.live w);
  Alcotest.(check (list string))
    "cancelled skipped" [ "keep1"; "keep2" ]
    (List.map (fun (_, _, p) -> p) (wheel_drain w ~up_to:(ns 1.)))

let test_wheel_arm_below_cursor () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 1.0) ~seq:0 (label "later"));
  Alcotest.(check bool) "cursor advanced" false
    (Sim.Timer_wheel.due w ~up_to:(ns 0.5));
  (* Arming below the cursor is legal and immediately due. *)
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.25) ~seq:1 (label "past"));
  Alcotest.(check (list (triple int int string)))
    "past entry surfaces first"
    [ (ns 0.25, 1, "past"); (ns 1.0, 0, "later") ]
    (wheel_drain w ~up_to:(ns 2.))

let test_wheel_distant_deadline () =
  (* Beyond the top level's span (2^20 ms ≈ 1048.6 s) entries wrap and
     are re-filed each revolution; they must still fire exactly once at
     the right time. *)
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 5000.) ~seq:0 (label "far"));
  Alcotest.(check bool) "not due after one span" false
    (Sim.Timer_wheel.due w ~up_to:(ns 2000.));
  Alcotest.(check bool) "not due just before" false
    (Sim.Timer_wheel.due w ~up_to:(ns 4999.));
  Alcotest.(check (list (triple int int string)))
    "fires once at its time"
    [ (ns 5000., 0, "far") ]
    (wheel_drain w ~up_to:(ns 6000.))

let test_wheel_physical_bound () =
  (* The lattice RTO pattern: every packet arms a timer ~1 s out and
     cancels it moments later. Lazy sweeping must keep physical usage
     O(live), not O(churn). *)
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  let live_target = 100 in
  for i = 0 to live_target - 1 do
    ignore
      (Sim.Timer_wheel.arm w ~time:(ns (100. +. float_of_int i)) ~seq:i ignore)
  done;
  for k = 0 to 9_999 do
    let seq = live_target + k in
    let now = 0.001 *. float_of_int k in
    let idx = Sim.Timer_wheel.arm w ~time:(ns (now +. 1.)) ~seq ignore in
    Sim.Timer_wheel.cancel w idx ~seq
  done;
  Alcotest.(check int) "live survivors" live_target (Sim.Timer_wheel.live w);
  let physical = Sim.Timer_wheel.physical w in
  Alcotest.(check bool)
    (Printf.sprintf "physical %d is O(live)" physical)
    true
    (physical <= (2 * live_target) + 16)

(* Model-based churn property: the wheel must agree with a sorted-list
   reference under arbitrary interleavings of arm / cancel / horizon
   advance. Times are drawn in units of half a tick so entries
   constantly straddle slot boundaries and share slots. *)

type wheel_op =
  | Warm of int  (* arm at now + k half-ticks *)
  | Wcancel of int  (* cancel the k-th arm so far, mod count *)
  | Wadvance of int  (* advance the horizon by k half-ticks and drain *)

let wheel_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun k -> Warm k) (int_bound 64));
        (3, map (fun k -> Wcancel k) (int_bound 50));
        (2, map (fun k -> Wadvance k) (int_bound 600)) ])

let wheel_op_print = function
  | Warm k -> Printf.sprintf "Warm %d" k
  | Wcancel k -> Printf.sprintf "Wcancel %d" k
  | Wadvance k -> Printf.sprintf "Wadvance %d" k

let wheel_ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map wheel_op_print ops))
    QCheck.Gen.(list_size (int_bound 200) wheel_op_gen)

let wheel_model_agrees ops =
  let granularity = ns 1e-3 in
  let half_tick = granularity / 2 in
  let w = Sim.Timer_wheel.create ~granularity () in
  (* Reference: (time, seq) sorted assoc list, seq = arm index. *)
  let model = ref [] in
  let armed = ref [||] in
  let arm_count = ref 0 in
  let ran = ref (-1) in
  let now = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let insert (t, s) =
    let rec go = function
      | [] -> [ (t, s) ]
      | (t', s') :: _ as rest when t < t' || (t = t' && s < s') ->
        (t, s) :: rest
      | entry :: rest -> entry :: go rest
    in
    model := go !model
  in
  let drain_due up_to =
    while Sim.Timer_wheel.due w ~up_to do
      let time = Sim.Timer_wheel.head_time w in
      let seq = Sim.Timer_wheel.head_seq w in
      Sim.Timer_wheel.pop_due w ();
      (match !model with
      | (t', s') :: rest ->
        check (time = t' && seq = s' && !ran = s');
        model := rest
      | [] -> check false);
      check (time <= up_to)
    done;
    (* Everything due by [up_to] must have surfaced. *)
    match !model with
    | (t', _) :: _ -> check (t' > up_to)
    | [] -> ()
  in
  List.iter
    (fun op ->
      (match op with
      | Warm k ->
        let seq = !arm_count in
        let time = !now + (half_tick * k) in
        let idx = Sim.Timer_wheel.arm w ~time ~seq (fun () -> ran := seq) in
        armed := Array.append !armed [| (idx, seq) |];
        insert (time, seq);
        incr arm_count
      | Wcancel k ->
        if !arm_count > 0 then begin
          let idx, seq = !armed.((k mod !arm_count)) in
          Sim.Timer_wheel.cancel w idx ~seq;
          model := List.filter (fun (_, s) -> s <> seq) !model
        end
      | Wadvance k ->
        now := !now + (half_tick * k);
        drain_due !now);
      check (Sim.Timer_wheel.live w = List.length !model);
      (* The physical-usage invariant from the interface. *)
      check
        (Sim.Timer_wheel.physical w <= (2 * Sim.Timer_wheel.live w) + 16))
    ops;
  (* Entries are armed at most 32 ticks past [now], so a finite final
     horizon well past that drains everything. *)
  drain_due (!now + ns 10.);
  check (!model = []);
  !ok

let wheel_props =
  [ QCheck.Test.make ~name:"wheel agrees with sorted-list model" ~count:300
      wheel_ops_arbitrary wheel_model_agrees ]

(* ------------------------------------------------------------------ *)
(* Engine vs the single-heap reference model                           *)
(* ------------------------------------------------------------------ *)

(* The engine keeps every event, one-shot or timer firing, on the
   timing wheel, and promises the pop order of one heap keyed on
   (time, rank). The reference model is that promise written out:
   every pending event sits in one list sorted by (time, rank), every
   rank comes from one global counter, rearming a cell cancels its old
   armament, and float seconds convert through [Sim.Time] as the engine
   converts them. A program runs unchanged on either scheduler; both
   runs must log the same handler executions at the same nanoseconds
   and count the same arms, cancels and fires. *)

module type SCHED = sig
  type t

  type cell

  val create : unit -> t

  val now_ns : t -> Sim.Time.t

  val schedule_at : t -> time:float -> (unit -> unit) -> unit

  val make_timer : t -> (unit -> unit) -> cell

  val arm_timer : t -> cell -> delay:float -> unit

  val cancel_timer : t -> cell -> unit

  val run : t -> until:float -> unit

  (* Events executed, timer arms, cancels and fires. *)
  val counters : t -> int * int * int * int
end

module Engine_sched : SCHED = struct
  type t = Sim.Engine.t

  type cell = Sim.Engine.timer

  let create () = Sim.Engine.create ()

  let now_ns = Sim.Engine.now_ns

  let schedule_at = Sim.Engine.schedule_at

  let make_timer = Sim.Engine.make_timer

  let arm_timer = Sim.Engine.arm_timer

  let cancel_timer = Sim.Engine.cancel_timer

  let run = Sim.Engine.run

  let counters t =
    Sim.Engine.(events_executed t, timer_arms t, timer_cancels t, timer_fires t)
end

module Heap_model : SCHED = struct
  type cell = {
    mutable armed : int;  (* rank of the pending armament, -1 if none *)
    handler : unit -> unit;
  }

  type kind = Oneshot of (unit -> unit) | Fire of cell

  type t = {
    mutable now : Sim.Time.t;
    mutable next_rank : int;
    mutable queue : (Sim.Time.t * int * kind) list;  (* by (time, rank) *)
    mutable events : int;
    mutable arms : int;
    mutable cancels : int;
    mutable fires : int;
  }

  let create () =
    { now = 0;
      next_rank = 0;
      queue = [];
      events = 0;
      arms = 0;
      cancels = 0;
      fires = 0 }

  let now_ns t = t.now

  let push t time kind =
    let rank = t.next_rank in
    t.next_rank <- rank + 1;
    let key (time, rank, _) = (time, rank) in
    t.queue <-
      List.merge (fun a b -> compare (key a) (key b)) [ (time, rank, kind) ]
        t.queue;
    rank

  let remove t rank =
    t.queue <- List.filter (fun (_, r, _) -> r <> rank) t.queue

  let schedule_at t ~time f = ignore (push t (Sim.Time.of_sec time) (Oneshot f))

  let make_timer _ handler = { armed = -1; handler }

  let cancel_timer t c =
    if c.armed >= 0 then begin
      remove t c.armed;
      c.armed <- -1;
      t.cancels <- t.cancels + 1
    end

  let arm_timer t c ~delay =
    cancel_timer t c;
    t.arms <- t.arms + 1;
    c.armed <- push t (Sim.Time.add t.now (Sim.Time.of_sec_delay delay)) (Fire c)

  let run t ~until =
    let until = Sim.Time.of_sec until in
    let rec loop () =
      match t.queue with
      | (time, _, kind) :: rest when time <= until ->
        t.queue <- rest;
        t.now <- time;
        t.events <- t.events + 1;
        (match kind with
        | Oneshot f -> f ()
        | Fire c ->
          c.armed <- -1;
          t.fires <- t.fires + 1;
          c.handler ());
        loop ()
      | _ -> ()
    in
    loop ()

  let counters t = (t.events, t.arms, t.cancels, t.fires)
end

(* What a handler does besides logging itself. Targets index the
   program's cells modulo their count. *)
type action =
  | Cancel_cell of int  (* [cancel_timer] a cell *)
  | Arm_cell of int * int
      (* [arm_timer] a cell [d] grid steps out; rearming an armed cell
         is the per-ACK RTO pattern *)

type program = {
  oneshots : (int * action list) list;  (* grid time, handler actions *)
  cells : (int * int * action list) list;
      (* grid period, self-rearms, handler actions *)
}

(* Half a wheel tick: coarse enough that one-shots and timer deadlines
   tie often, fine enough that entries straddle slot boundaries. *)
let grid = 0.5e-3

(* Handler actions are capped program-wide so that cells arming each
   other cannot run forever. *)
let action_budget = 64

let run_program (module S : SCHED) p =
  let s = S.create () in
  let log = ref [] in
  let note label = log := (label, S.now_ns s) :: !log in
  let steps k = float_of_int k *. grid in
  let cells = ref [||] in
  let budget = ref action_budget in
  let act a =
    let n_cells = Array.length !cells in
    if !budget > 0 then begin
      decr budget;
      match a with
      | Cancel_cell k when n_cells > 0 ->
        S.cancel_timer s !cells.(k mod n_cells)
      | Arm_cell (k, d) when n_cells > 0 ->
        S.arm_timer s !cells.(k mod n_cells) ~delay:(steps d)
      | Cancel_cell _ | Arm_cell _ -> ()
    end
  in
  List.iteri
    (fun i (k, actions) ->
      S.schedule_at s ~time:(steps k) (fun () ->
          note (1000 + i);
          List.iter act actions))
    p.oneshots;
  cells :=
    Array.of_list
      (List.mapi
         (fun i (period, repeats, actions) ->
           let remaining = ref repeats in
           let cell = ref None in
           let handler () =
             note i;
             if !remaining > 0 then begin
               decr remaining;
               S.arm_timer s (Option.get !cell) ~delay:(steps period)
             end;
             List.iter act actions
           in
           let tm = S.make_timer s handler in
           cell := Some tm;
           tm)
         p.cells);
  List.iteri
    (fun i (period, _, _) -> S.arm_timer s !cells.(i) ~delay:(steps period))
    p.cells;
  S.run s ~until:100.;
  (List.rev !log, S.counters s)

let engine_matches_model p =
  run_program (module Engine_sched) p = run_program (module Heap_model) p

let print_program p =
  let action = function
    | Cancel_cell k -> Printf.sprintf "cancel-cell %d" k
    | Arm_cell (k, d) -> Printf.sprintf "arm-cell %d +%d" k d
  in
  let actions l = String.concat "; " (List.map action l) in
  String.concat "\n"
    (List.mapi
       (fun i (k, a) -> Printf.sprintf "oneshot %d at %d [%s]" i k (actions a))
       p.oneshots
    @ List.mapi
        (fun i (period, repeats, a) ->
          Printf.sprintf "cell %d every %d x%d [%s]" i period repeats
            (actions a))
        p.cells)

let program_arbitrary =
  let open QCheck.Gen in
  let action =
    frequency
      [ (2, map (fun k -> Cancel_cell k) (int_bound 20));
        (3, map2 (fun k d -> Arm_cell (k, d)) (int_bound 20) (int_bound 16)) ]
  in
  let actions = list_size (int_bound 3) action in
  (* Mostly a few ticks out, so deadlines tie; now and then far enough
     (up to 20 s) to file on the wheel's upper levels. *)
  let steps = frequency [ (9, int_bound 24); (1, int_bound 40_000) ] in
  QCheck.make ~print:print_program
    (map2
       (fun oneshots cells -> { oneshots; cells })
       (list_size (int_bound 20) (pair steps actions))
       (list_size (int_bound 6) (triple steps (int_bound 4) actions)))

(* ------------------------------------------------------------------ *)
(* Engine timer cells                                                  *)
(* ------------------------------------------------------------------ *)

let test_timer_cell_lifecycle () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  let tm = Sim.Engine.make_timer engine (fun () -> incr fired) in
  Alcotest.(check bool) "starts unarmed" false (Sim.Engine.timer_armed tm);
  Sim.Engine.arm_timer engine tm ~delay:1.;
  Alcotest.(check bool) "armed" true (Sim.Engine.timer_armed tm);
  Sim.Engine.cancel_timer engine tm;
  Alcotest.(check bool) "disarmed" false (Sim.Engine.timer_armed tm);
  Sim.Engine.run engine ~until:5.;
  Alcotest.(check int) "cancelled never fires" 0 !fired;
  Sim.Engine.arm_timer engine tm ~delay:1.;
  (* Rearming replaces the pending armament: only the later one fires. *)
  Sim.Engine.arm_timer engine tm ~delay:2.;
  Sim.Engine.run engine ~until:20.;
  Alcotest.(check int) "rearm fires once" 1 !fired;
  Alcotest.(check bool) "unarmed after firing" false
    (Sim.Engine.timer_armed tm);
  Alcotest.(check int) "arms counted" 3 (Sim.Engine.timer_arms engine);
  (* cancel_timer plus the implicit cancel of the replaced armament. *)
  Alcotest.(check int) "cancels counted" 2 (Sim.Engine.timer_cancels engine);
  Alcotest.(check int) "fires counted" 1 (Sim.Engine.timer_fires engine)

let test_timer_rearm_from_own_handler () =
  (* The RTO pattern: the handler rearms its own cell. The cell must
     read unarmed inside the handler and the rearm must take effect —
     this is the regression test for the timer-slot refactor. *)
  let engine = Sim.Engine.create () in
  let fires = ref [] in
  let armed_inside = ref [] in
  let cell = ref None in
  let handler () =
    let tm = Option.get !cell in
    armed_inside := Sim.Engine.timer_armed tm :: !armed_inside;
    fires := Sim.Engine.now engine :: !fires;
    if List.length !fires < 3 then Sim.Engine.arm_timer engine tm ~delay:0.5
  in
  let tm = Sim.Engine.make_timer engine handler in
  cell := Some tm;
  Sim.Engine.arm_timer engine tm ~delay:0.5;
  Sim.Engine.run engine ~until:10.;
  Alcotest.(check (list (float 1e-12)))
    "fires at each rearm" [ 0.5; 1.0; 1.5 ] (List.rev !fires);
  Alcotest.(check (list bool))
    "reads unarmed inside handler" [ false; false; false ] !armed_inside

let test_timer_subtick_times_exact () =
  (* Wheel slots quantise placement, never the key: timers due inside
     one slot fire at their exact times, in seq order on ties. *)
  let engine = Sim.Engine.create ~timer_granularity:1e-3 () in
  let log = ref [] in
  let mk label delay =
    let tm =
      Sim.Engine.make_timer engine (fun () ->
          log := (label, Sim.Engine.now engine) :: !log)
    in
    Sim.Engine.arm_timer engine tm ~delay
  in
  mk "b" 0.0007;
  mk "a" 0.0005;
  mk "c" 0.0007;
  Sim.Engine.run engine ~until:1.;
  Alcotest.(check (list (pair string (float 1e-12))))
    "exact sub-tick times, seq order on ties"
    [ ("a", 0.0005); ("b", 0.0007); ("c", 0.0007) ]
    (List.rev !log)

(* A fixed program on the engine and on the reference model. At 0.25 s
   one-shot 1 cancels cell 0, the wheel's due head at that instant,
   while one-shot 2 is still queued there; one-shot 2 then rearms cell
   0 at the same instant. Cell 1 rearms the armed cell 3 each time it
   fires. *)
let test_engine_wheel_heap_identical () =
  let p =
    { oneshots =
        [ (200, []);
          (500, [ Cancel_cell 0 ]);
          (500, [ Arm_cell (0, 0) ]);
          (7400, []);
          (100_000, [ Arm_cell (2, 0) ]) ];
      cells =
        [ (500, 3, []); (1000, 2, [ Arm_cell (3, 4) ]); (1, 5, []);
          (80_000, 1, []) ] }
  in
  let log, (events, arms, cancels, fires) =
    run_program (module Engine_sched) p
  in
  let model_log, (m_events, m_arms, m_cancels, m_fires) =
    run_program (module Heap_model) p
  in
  Alcotest.(check (list (pair int int))) "identical traces" model_log log;
  Alcotest.(check int) "identical event counts" m_events events;
  Alcotest.(check int) "identical arm counts" m_arms arms;
  Alcotest.(check int) "identical cancel counts" m_cancels cancels;
  Alcotest.(check int) "identical fire counts" m_fires fires;
  Alcotest.(check (list (pair int int)))
    "at 0.25 s: both one-shots, then the rearmed cell 0"
    [ (1001, ns 0.25); (1002, ns 0.25); (0, ns 0.25) ]
    (List.filter (fun (_, at) -> at = ns 0.25) log)

let engine_model_props =
  [ QCheck.Test.make ~name:"wheel and heap schedules are byte-identical"
      ~count:300 program_arbitrary engine_matches_model ]

(* ------------------------------------------------------------------ *)
(* Integer-nanosecond time core                                        *)
(* ------------------------------------------------------------------ *)

(* Every time the engine can produce is an integer nanosecond below
   2^50 (see DESIGN.md §15): the float boundary must round-trip
   exactly, or a handler that reads the clock in seconds and schedules
   an event at that same time would land on a different nanosecond. *)
let ns_roundtrip_prop =
  QCheck.Test.make ~name:"of_sec (to_sec ns) = ns below 2^50" ~count:10_000
    QCheck.(
      map
        (fun (hi, lo) -> (hi lsl 25) lor lo)
        (pair (int_bound ((1 lsl 25) - 1)) (int_bound ((1 lsl 25) - 1))))
    (fun ns -> Sim.Time.of_sec (Sim.Time.to_sec ns) = ns)

(* The int-keyed scheduler must pop in exactly the order the
   float-keyed heap it replaced would have: sort by (seconds, push
   serial). Exact conversion makes float comparison of
   engine-producible times agree with int comparison; small times force
   constant tie-breaking, large ones spread over the wheel's levels. *)
let heap_float_order_prop =
  QCheck.Test.make ~name:"int heap pops in frozen float-heap order"
    ~count:300
    QCheck.(
      list (oneof [ int_bound 50; int_bound 1_000_000_000 ]))
    (fun times_ns ->
      let popped =
        wheel_order ~granularity:(Sim.Time.of_sec 1e-3)
          (List.mapi (fun i t -> (t, i)) times_ns)
      in
      let model =
        List.mapi (fun i t -> (Sim.Time.to_sec t, i, t)) times_ns
        |> List.stable_sort (fun (a, i, _) (b, j, _) ->
               if a < b then -1 else if a > b then 1 else compare i j)
        |> List.map (fun (_, i, t) -> (t, i))
      in
      popped = model)

(* The float-era tick computation the wheel replaced, frozen verbatim:
   truncate, then nudge down if float rounding overshot the slot start,
   then nudge up if it undershot. *)
let float_tick_of ~granularity time =
  let k = int_of_float (time /. granularity) in
  let k = if float_of_int k *. granularity > time then k - 1 else k in
  if float_of_int (k + 1) *. granularity <= time then k + 1 else k

(* Off a granularity boundary the integer tick [t / g] agrees with the
   float-era computation everywhere. *At* an exact boundary [k * g] the
   int tick is exactly [k], while the float version can round
   [float k *. g] above [time] and settle on [k - 1] — the one-ulp
   skew the integer core removes. The property pins both behaviours. *)
let wheel_tick_prop =
  QCheck.Test.make
    ~name:"wheel tick vs float-era tick at granularity boundaries"
    ~count:5_000
    QCheck.(
      triple
        (oneofl [ 1e-3; 1e-4; 2.5e-4; 1e-2; 7e-3; 1.25e-5 ])
        (int_bound 1_100_000)
        (oneofl [ -1; 0; 1 ]))
    (fun (g_sec, k, delta) ->
      let g_ns = Sim.Time.of_sec g_sec in
      let t_ns = (k * g_ns) + delta in
      QCheck.assume (t_ns >= 0);
      let int_tick = t_ns / g_ns in
      let float_tick =
        float_tick_of ~granularity:g_sec (Sim.Time.to_sec t_ns)
      in
      if t_ns mod g_ns = 0 then
        float_tick = int_tick || float_tick = int_tick - 1
      else float_tick = int_tick)

let ns_time_props = [ ns_roundtrip_prop; heap_float_order_prop; wheel_tick_prop ]

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* Handlers are stored most-recent-first internally; emit must still
   run them in registration order. *)
let test_trace_tap_ordering () =
  let tap = Sim.Trace.tap () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Trace.on tap (fun v -> log := (i, v) :: !log)
  done;
  Sim.Trace.emit tap "x";
  Alcotest.(check (list (pair int string)))
    "registration order"
    [ (1, "x"); (2, "x"); (3, "x"); (4, "x"); (5, "x") ]
    (List.rev !log)

let test_trace_tap_armed () =
  let tap = Sim.Trace.tap () in
  Alcotest.(check bool) "unarmed when empty" false (Sim.Trace.armed tap);
  Sim.Trace.on tap ignore;
  Alcotest.(check bool) "armed after subscribe" true (Sim.Trace.armed tap)

let () =
  Alcotest.run "sim"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick
            test_rng_seed_changes_stream;
          Alcotest.test_case "split deterministic" `Quick
            test_rng_split_deterministic;
          Alcotest.test_case "split label matters" `Quick
            test_rng_split_label_matters;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "choose weighted" `Quick test_rng_choose_weighted;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) rng_props );
      ( "event-queue",
        [ Alcotest.test_case "orders by time" `Quick test_queue_orders_by_time;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_on_ties ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) queue_props );
      ( "engine",
        [ Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "run handlers are collectable" `Quick
            test_engine_releases_run_handlers ] );
      ( "timer-wheel",
        [ Alcotest.test_case "orders by key" `Quick test_wheel_orders_by_key;
          Alcotest.test_case "due respects horizon" `Quick
            test_wheel_due_respects_horizon;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "arm below cursor" `Quick
            test_wheel_arm_below_cursor;
          Alcotest.test_case "distant deadline" `Quick
            test_wheel_distant_deadline;
          Alcotest.test_case "physical O(live)" `Quick
            test_wheel_physical_bound ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) wheel_props );
      ( "ns-time",
        List.map (QCheck_alcotest.to_alcotest ~long:false) ns_time_props );
      ( "engine-timers",
        [ Alcotest.test_case "cell lifecycle" `Quick test_timer_cell_lifecycle;
          Alcotest.test_case "rearm from own handler" `Quick
            test_timer_rearm_from_own_handler;
          Alcotest.test_case "sub-tick times exact" `Quick
            test_timer_subtick_times_exact;
          Alcotest.test_case "wheel vs heap identical" `Quick
            test_engine_wheel_heap_identical ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false)
            engine_model_props );
      ( "trace",
        [ Alcotest.test_case "tap runs in registration order" `Quick
            test_trace_tap_ordering;
          Alcotest.test_case "tap armed" `Quick test_trace_tap_armed ] ) ]
