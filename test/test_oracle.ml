(* Conformance oracle suite.

   Three layers, from fastest to fullest:

   - monitor unit tests feed hand-crafted probe event streams to each
     monitor, proving the monitors themselves detect the violations
     they claim to (an oracle that cannot fail proves nothing);
   - a sender-level chaos harness (random loss, reordering and ACK
     duplication implemented directly on the action interface) checks
     pure liveness for every variant, qcheck-driven;
   - the differential oracle runs every variant through full-simulator
     scenarios generated from seeds — same topology, loss pattern and
     routing for all variants — with the invariant monitors armed, and
     a deliberately corrupted TCP-PR proves the monitors catch a
     dupack-triggered retransmission with a readable report.

   Golden traces for figure-derived miniatures are digested under
   test/golden/ and must reproduce byte-identically at any domain
   count. *)

let ack ?(sacks = []) ?dsack ?(for_seq = 0) ?(for_retx = false) ?(serial = 0)
    next =
  { Tcp.Types.next;
    sacks;
    dsack;
    for_seq;
    for_retx;
    serial;
    rwnd = Tcp.Types.rwnd_unbounded }

let view ?(cwnd = 2.) ?(metrics = []) () = { Tcp.Probe.cwnd; metrics }

(* ------------------------------------------------------------------ *)
(* Monitor unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let feed monitor events = List.iter (Check.Monitor.on_event monitor) events

let check_fires name monitor events =
  feed monitor events;
  Alcotest.(check bool)
    (name ^ " detects the violation") true
    (Check.Monitor.violation_count monitor > 0)

let check_silent name monitor events =
  feed monitor events;
  Alcotest.(check (list string))
    (name ^ " stays silent") []
    (List.map
       (fun v -> v.Check.Monitor.message)
       (Check.Monitor.violations monitor))

let data ~time ~seq ?(retx = false) ?(dup = false) ~before ~after () =
  Tcp.Probe.Data_at_sink
    { time;
      flow = 0;
      seq;
      retx;
      dup;
      buf_drop = false;
      rcv_next_before = before;
      rcv_next_after = after }

let test_delivery_clean () =
  check_silent "delivery" (Check.Monitor.delivery ())
    [ data ~time:0.1 ~seq:0 ~before:0 ~after:1 ();
      data ~time:0.2 ~seq:2 ~before:1 ~after:1 ();
      data ~time:0.3 ~seq:1 ~before:1 ~after:3 ();
      data ~time:0.4 ~seq:1 ~dup:true ~before:3 ~after:3 () ]

let test_delivery_catches_skip () =
  (* rcv_next jumps over the hole at seq 1: segment 1 was never
     delivered to the application. *)
  check_fires "delivery" (Check.Monitor.delivery ())
    [ data ~time:0.1 ~seq:0 ~before:0 ~after:1 ();
      data ~time:0.2 ~seq:2 ~before:1 ~after:3 () ]

let test_delivery_catches_silent_duplicate () =
  check_fires "delivery" (Check.Monitor.delivery ())
    [ data ~time:0.1 ~seq:0 ~before:0 ~after:1 ();
      data ~time:0.2 ~seq:0 ~before:1 ~after:1 () ]

let test_conservation_catches_minted_data () =
  (* A segment arrives that was never put on the wire. *)
  check_fires "conservation"
    (Check.Monitor.conservation ())
    [ data ~time:0.1 ~seq:5 ~before:0 ~after:0 () ]

let test_conservation_catches_duplicated_ack () =
  let a = ack ~serial:7 1 in
  check_fires "conservation"
    (Check.Monitor.conservation ())
    [ Tcp.Probe.Ack_at_sink { time = 0.1; flow = 0; ack = a };
      Tcp.Probe.Ack_at_source
        { time = 0.2;
          flow = 0;
          ack = a;
          before = view ();
          after = view ();
          actions = [] };
      Tcp.Probe.Ack_at_source
        { time = 0.3;
          flow = 0;
          ack = a;
          before = view ();
          after = view ();
          actions = [] } ]

let test_cwnd_catches_collapse () =
  check_fires "cwnd-sanity"
    (Check.Monitor.cwnd_sanity ~config:Tcp.Config.default)
    [ Tcp.Probe.Ack_at_source
        { time = 0.1;
          flow = 0;
          ack = ack 1;
          before = view ();
          after = view ~cwnd:0.25 ();
          actions = [] } ]

let test_rto_catches_out_of_bounds_arm () =
  check_fires "rto-sanity"
    (Check.Monitor.rto_sanity ~config:Tcp.Config.default)
    [ Tcp.Probe.Timer_fired
        { time = 0.1;
          flow = 0;
          key = 0;
          before = view ();
          after = view ();
          actions = [ Tcp.Action.Set_timer { key = 0; delay = 0.001 } ] } ]

let test_rto_catches_karn_violation () =
  (* seq 0 was retransmitted, yet the ACK covering it changed srtt. *)
  let srtt value = [ ("srtt", value) ] in
  check_fires "rto-sanity"
    (Check.Monitor.rto_sanity ~config:Tcp.Config.default)
    [ Tcp.Probe.Sent { time = 0.0; flow = 0; seq = 0; retx = false };
      Tcp.Probe.Sent { time = 0.5; flow = 0; seq = 0; retx = true };
      Tcp.Probe.Ack_at_source
        { time = 0.7;
          flow = 0;
          ack = ack 1;
          before = view ~metrics:(srtt (-1.)) ();
          after = view ~metrics:(srtt 0.7) ();
          actions = [] } ]

let test_tcp_pr_catches_unauthorized_retx () =
  (* A retransmission during ACK processing with no timer-declared drop
     outstanding: exactly what a dupack-triggered fast retransmit looks
     like on the wire. *)
  let metrics = [ ("drops_detected", 0.); ("false_drops", 0.) ] in
  check_fires "tcp-pr"
    (Check.Monitor.tcp_pr ~config:Tcp.Config.default)
    [ Tcp.Probe.Ack_at_source
        { time = 0.1;
          flow = 0;
          ack = ack 1;
          before = view ~metrics ();
          after = view ~metrics ();
          actions = [ Tcp.Action.Send { seq = 3; retx = true } ] } ]

let test_tcp_pr_allows_timer_authorized_retx () =
  (* The legitimate sequence: a timer declares the drop, the
     retransmission flushes later during ACK processing. *)
  let m d =
    [ ("drops_detected", d);
      ("false_drops", 0.);
      ("ewrtt", 1.);
      ("mxrtt", 3.) ]
  in
  check_silent "tcp-pr"
    (Check.Monitor.tcp_pr ~config:Tcp.Config.default)
    [ Tcp.Probe.Timer_fired
        { time = 1.0;
          flow = 0;
          key = 0;
          before = view ~cwnd:2. ~metrics:(m 0.) ();
          after = view ~cwnd:1. ~metrics:(m 1.) ();
          actions = [] };
      Tcp.Probe.Ack_at_source
        { time = 1.2;
          flow = 0;
          ack = ack 1;
          before = view ~cwnd:1. ~metrics:(m 1.) ();
          after = view ~cwnd:1. ~metrics:(m 1.) ();
          actions = [ Tcp.Action.Send { seq = 3; retx = true } ] } ]

(* ------------------------------------------------------------------ *)
(* Sender-level chaos liveness (ported from the old torture test)      *)
(* ------------------------------------------------------------------ *)

type chaos_event =
  | Data_arrives of int * bool  (* seq, is_retx *)
  | Ack_arrives of Tcp.Types.ack
  | Timer_fires of int  (* key *)

(* A deterministic chaos network driving one sender against the real
   Receiver. Packets suffer base delay plus random jitter (reordering),
   independent loss in each direction, and occasional ACK duplication.
   An agenda of timestamped events keeps everything ordered. *)
module Chaos = struct
  type t = {
    rng : Sim.Rng.t;
    loss : float;
    jitter : float;
    base_delay : float;
    mutable now : float;
    mutable next_id : int;
    mutable agenda : (float * int * chaos_event) list;
    (* live timers: key -> (id, fire time); replaced on re-arm *)
    timers : (int, int * float) Hashtbl.t;
    mutable cancelled : int list;
  }

  let create ~seed ~loss ~jitter =
    { rng = Sim.Rng.create seed;
      loss;
      jitter;
      base_delay = 0.05;
      now = 0.;
      next_id = 0;
      agenda = [];
      timers = Hashtbl.create 8;
      cancelled = [] }

  let schedule t ~delay event =
    let id = t.next_id in
    t.next_id <- id + 1;
    t.agenda <-
      List.merge
        (fun (ta, ia, _) (tb, ib, _) -> compare (ta, ia) (tb, ib))
        t.agenda
        [ (t.now +. delay, id, event) ];
    id

  let transit_delay t =
    t.base_delay +. Sim.Rng.float_range t.rng ~lo:0. ~hi:t.jitter

  let perform t actions =
    let handle = function
      | Tcp.Action.Send { seq; retx } ->
        if not (Sim.Rng.bool t.rng ~p:t.loss) then
          ignore
            (schedule t ~delay:(transit_delay t) (Data_arrives (seq, retx)))
      | Tcp.Action.Set_timer { key; delay } ->
        (match Hashtbl.find_opt t.timers key with
        | Some (old_id, _) -> t.cancelled <- old_id :: t.cancelled
        | None -> ());
        let id = schedule t ~delay (Timer_fires key) in
        Hashtbl.replace t.timers key (id, t.now +. delay)
      | Tcp.Action.Cancel_timer { key } -> (
        match Hashtbl.find_opt t.timers key with
        | Some (old_id, _) ->
          t.cancelled <- old_id :: t.cancelled;
          Hashtbl.remove t.timers key
        | None -> ())
    in
    List.iter handle actions

  let send_ack t ack =
    if not (Sim.Rng.bool t.rng ~p:t.loss) then begin
      ignore (schedule t ~delay:(transit_delay t) (Ack_arrives ack));
      (* Occasionally the network duplicates an ACK. *)
      if Sim.Rng.bool t.rng ~p:0.02 then
        ignore (schedule t ~delay:(transit_delay t) (Ack_arrives ack))
    end

  let pop t =
    match t.agenda with
    | [] -> None
    | (time, id, event) :: rest ->
      t.agenda <- rest;
      if List.mem id t.cancelled then begin
        t.cancelled <- List.filter (fun i -> i <> id) t.cancelled;
        Some (time, None)
      end
      else begin
        t.now <- time;
        (match event with
        | Timer_fires key -> (
          match Hashtbl.find_opt t.timers key with
          | Some (live_id, _) when live_id = id -> Hashtbl.remove t.timers key
          | Some _ | None -> ())
        | Data_arrives _ | Ack_arrives _ -> ());
        Some (time, Some event)
      end
end

let run_torture ~seed ~loss ~jitter (module M : Tcp.Sender.S) =
  let total = 60 in
  let config =
    { Tcp.Config.default with
      Tcp.Config.total_segments = Some total;
      min_rto = 0.3;
      initial_rto = 1. }
  in
  let sender = M.create config in
  let receiver = Tcp.Receiver.create config in
  let net = Chaos.create ~seed ~loss ~jitter in
  Chaos.perform net (Tcp.Action_buffer.collect (M.start sender ~now:0.));
  let steps = ref 0 in
  let max_steps = 100_000 in
  while (not (M.finished sender)) && !steps < max_steps do
    incr steps;
    match Chaos.pop net with
    | None ->
      (* Nothing scheduled and not finished: liveness failure. *)
      steps := max_steps
    | Some (_, None) -> () (* cancelled event *)
    | Some (_, Some (Data_arrives (seq, retx))) ->
      let ack = Tcp.Receiver.on_data receiver ~retx ~seq () in
      Chaos.send_ack net ack
    | Some (now, Some (Ack_arrives ack)) ->
      Chaos.perform net (Tcp.Action_buffer.collect (M.on_ack sender ~now ack))
    | Some (now, Some (Timer_fires key)) ->
      Chaos.perform net (Tcp.Action_buffer.collect (M.on_timer sender ~now ~key))
  done;
  M.finished sender && Tcp.Receiver.in_order_segments receiver = total

let torture_prop (name, sender_module) =
  QCheck.Test.make
    ~name:(name ^ " survives loss + reordering + duplication")
    ~count:25
    QCheck.(triple small_int (float_range 0. 0.15) (float_range 0. 0.08))
    (fun (seed, loss, jitter) ->
      run_torture ~seed:(seed + 1) ~loss ~jitter sender_module)

(* Sanity: the harness itself can fail — a network that drops everything
   must be reported as not finishing. *)
let test_chaos_detects_starvation () =
  Alcotest.(check bool) "all-loss network never finishes" false
    (run_torture ~seed:1 ~loss:1.0 ~jitter:0. (module Tcp.Sack))

let test_chaos_clean_network () =
  Alcotest.(check bool) "lossless network finishes" true
    (run_torture ~seed:1 ~loss:0. ~jitter:0. (module Tcp.Sack))

(* ------------------------------------------------------------------ *)
(* Reset equals create                                                 *)
(* ------------------------------------------------------------------ *)

(* A sender and a receiver run part of a lossy, reordered transfer,
   possibly to completion; then [reset] gives them a fresh config and
   they run a second transfer beside a newly created pair, every event
   fed to both. After each event the two senders must agree on the
   actions, [cwnd], [acked], [finished] and [metrics], and the two
   receivers on the disposition (ACK record included) and on their
   counters and reordering analytics. The second
   transfer restarts the clock at 0, so any absolute time left over
   from the first (a back-off deadline, a freeze window) shows. [compare]
   rather than [=], so equal NaNs agree. *)
let reset_config ~total ~delayed_ack ~rcv_buf =
  { Tcp.Config.default with
    Tcp.Config.total_segments = Some total;
    delayed_ack;
    rcv_buf_segments = rcv_buf;
    min_rto = 0.3;
    initial_rto = 1. }

let receiver_view r =
  let depth = Tcp.Receiver.reorder_depth r in
  let ro = Tcp.Receiver.reorder r in
  ( (Tcp.Receiver.rcv_next r, Tcp.Receiver.duplicates r, Tcp.Receiver.buffered r),
    ( Obs.Metrics.Histogram.buckets depth,
      Obs.Metrics.Histogram.sum depth,
      Obs.Metrics.Histogram.max_value depth ),
    ( Obs.Reorder.arrivals ro,
      Obs.Reorder.reordered ro,
      Obs.Reorder.late_retx ro,
      Obs.Reorder.extent_capped ro,
      Obs.Metrics.Histogram.buckets (Obs.Reorder.extent ro),
      Obs.Metrics.Histogram.buckets (Obs.Reorder.n_reordering ro) ) )

let run_reset ~seed ~loss ~jitter ~steps ~total1 ~total2 ~flags
    (module M : Tcp.Sender.S) =
  let config1 =
    reset_config ~total:total1 ~delayed_ack:(flags land 1 <> 0)
      ~rcv_buf:(if flags land 4 <> 0 then Some 16 else None)
  in
  let config2 =
    { (reset_config ~total:total2 ~delayed_ack:(flags land 2 <> 0)
         ~rcv_buf:None)
      with
      Tcp.Config.initial_cwnd = (if flags land 8 <> 0 then 2. else 1.) }
  in
  let reused = M.create config1 in
  let reused_rcv = Tcp.Receiver.create config1 in
  let net = Chaos.create ~seed ~loss ~jitter in
  Chaos.perform net (Tcp.Action_buffer.collect (M.start reused ~now:0.));
  let rec dirty n =
    if n > 0 && not (M.finished reused) then begin
      (match Chaos.pop net with
      | None | Some (_, None) -> ()
      | Some (_, Some (Data_arrives (seq, retx))) ->
        Chaos.send_ack net (Tcp.Receiver.on_data reused_rcv ~retx ~seq ())
      | Some (now, Some (Ack_arrives ack)) ->
        Chaos.perform net
          (Tcp.Action_buffer.collect (M.on_ack reused ~now ack))
      | Some (now, Some (Timer_fires key)) ->
        Chaos.perform net
          (Tcp.Action_buffer.collect (M.on_timer reused ~now ~key)));
      dirty (n - 1)
    end
  in
  dirty steps;
  M.reset reused config2;
  Tcp.Receiver.reset reused_rcv config2;
  let fresh = M.create config2 in
  let fresh_rcv = Tcp.Receiver.create config2 in
  let view s actions = (actions, M.cwnd s, M.acked s, M.finished s, M.metrics s) in
  let agree = ref true in
  let both run =
    let a = Tcp.Action_buffer.collect (run reused) in
    let b = Tcp.Action_buffer.collect (run fresh) in
    if compare (view reused a) (view fresh b) <> 0 then agree := false;
    b
  in
  let net = Chaos.create ~seed:(seed + 1) ~loss ~jitter in
  Chaos.perform net (both (fun s -> M.start s ~now:0.));
  let rec clean n =
    if n > 0 && !agree && not (M.finished fresh) then begin
      (match Chaos.pop net with
      | None -> ()
      | Some (_, None) -> ()
      | Some (_, Some (Data_arrives (seq, retx))) ->
        let a = Tcp.Receiver.receive reused_rcv ~retx ~seq () in
        let b = Tcp.Receiver.receive fresh_rcv ~retx ~seq () in
        if compare (a, receiver_view reused_rcv) (b, receiver_view fresh_rcv) <> 0
        then agree := false;
        (match b with
        | Tcp.Receiver.Ack_now ack
        | Tcp.Receiver.Defer ack
        | Tcp.Receiver.Drop ack ->
          Chaos.send_ack net ack)
      | Some (now, Some (Ack_arrives ack)) ->
        Chaos.perform net (both (fun s -> M.on_ack s ~now ack))
      | Some (now, Some (Timer_fires key)) ->
        Chaos.perform net (both (fun s -> M.on_timer s ~now ~key)));
      clean (n - 1)
    end
  in
  clean 100_000;
  !agree

let reset_prop (name, sender_module) =
  QCheck.Test.make ~name:(name ^ " reset equals create") ~count:25
    QCheck.(
      pair
        (triple small_int (float_range 0. 0.15) (float_range 0. 0.08))
        (quad (int_range 0 600) (int_range 1 80) (int_range 1 80)
           (int_range 0 15)))
    (fun ((seed, loss, jitter), (steps, total1, total2, flags)) ->
      run_reset ~seed:(seed + 1) ~loss ~jitter ~steps ~total1 ~total2 ~flags
        sender_module)

(* ------------------------------------------------------------------ *)
(* Differential oracle over the full simulator                         *)
(* ------------------------------------------------------------------ *)

let report_failure report =
  Alcotest.failf "%a" (fun ppf r -> Check.Oracle.pp_report ppf r) report

let differential_seeds = List.init 10 (fun i -> i + 1)

let differential_case (name, sender) =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun seed ->
          let scenario = Check.Oracle.generate ~seed () in
          let report = Check.Oracle.run scenario ~variant:(name, sender) in
          if not (Check.Oracle.passed report) then report_failure report)
        differential_seeds)

(* Every [--variant] flag resolves through [Variants.find], and
   [canonical] names the golden trace files and the bench cells: each
   label resolves from itself, its canonical form and its upper-cased
   form, and the canonical names are distinct file names. *)
let test_variant_lookup () =
  let labels = List.map fst Experiments.Variants.all in
  Alcotest.(check int) "variant count" 13 (List.length labels);
  List.iter
    (fun label ->
      List.iter
        (fun spelling ->
          match Experiments.Variants.find spelling with
          | Some (found, _) ->
            Alcotest.(check string) (Printf.sprintf "find %S" spelling) label
              found
          | None -> Alcotest.failf "find %S: no variant" spelling)
        [ label;
          Experiments.Variants.canonical label;
          String.uppercase_ascii label ])
    labels;
  let canonicals = List.map Experiments.Variants.canonical labels in
  Alcotest.(check int) "canonical names distinct" (List.length canonicals)
    (List.length (List.sort_uniq compare canonicals));
  List.iter
    (String.iter (function
      | 'a' .. 'z' | '0' .. '9' | '-' -> ()
      | c -> Alcotest.failf "%C in a canonical name" c))
    canonicals;
  Alcotest.(check bool) "find \"bogus\"" true
    (Option.is_none (Experiments.Variants.find "bogus"))

(* qcheck layer on top of the fixed seed sweep: scenarios are generated
   deterministically from the drawn seed, so any failure reproduces
   from the printed counterexample. *)
let differential_prop (name, sender) =
  QCheck.Test.make
    ~name:(name ^ " passes oracle scenarios for random seeds")
    ~count:8
    QCheck.(int_range 1 5000)
    (fun seed ->
      Check.Oracle.passed
        (Check.Oracle.run (Check.Oracle.generate ~seed ()) ~variant:(name, sender)))

(* Oracle harness sanity: an impossible network must be reported. *)
let starvation_scenario =
  { Check.Oracle.seed = 0;
    topology = Check.Oracle.Dumbbell;
    loss = 1.0;
    jitter = 0.;
    epsilon = 0.;
    route_flap = false;
    delayed_ack = false;
    total_segments = 20;
    bandwidth_scale = 1.;
    coalesce = None;
    rcv_buf = None;
    time_limit = 60. }

let test_oracle_detects_starvation () =
  let report =
    Check.Oracle.run starvation_scenario ~variant:Experiments.Variants.tcp_sack
  in
  Alcotest.(check bool) "all-loss scenario fails" false
    (Check.Oracle.passed report);
  Alcotest.(check bool) "transfer unfinished" false
    report.Check.Oracle.finished

let test_oracle_clean_scenario () =
  let scenario =
    { starvation_scenario with Check.Oracle.loss = 0.; total_segments = 40 }
  in
  let report =
    Check.Oracle.run scenario ~variant:Experiments.Variants.tcp_sack
  in
  if not (Check.Oracle.passed report) then report_failure report

(* Timer-boundary regressions, as (seed, variant) pairs. Seeds 289 and
   336 once stalled TCP-PR for good (47 of 63 and 58 of 59 segments
   delivered): the back-off timer fired at its ns-rounded deadline,
   [now] read back in seconds one ulp below [backoff_until], so the
   sender sent nothing and armed no timer. Seed 843 spins RACK when its
   reordering-timer expiry is tested as [now -. sent >= rtt +. reo_wnd]
   without an epsilon: one ulp short of the expression the timer was
   armed with, it re-arms at the same instant forever. *)
let test_tcp_pr_backoff_resumes () =
  List.iter
    (fun (seed, variant) ->
      let report =
        Check.Oracle.run (Check.Oracle.generate ~seed ()) ~variant
      in
      if not (Check.Oracle.passed report) then report_failure report)
    [ (289, Experiments.Variants.tcp_pr);
      (336, Experiments.Variants.tcp_pr);
      (843, ("RACK", (module Tcp.Rack : Tcp.Sender.S))) ]

(* ------------------------------------------------------------------ *)
(* Corrupted sender: the oracle must catch it                          *)
(* ------------------------------------------------------------------ *)

(* TCP-PR with a deliberate bug planted: any ACK showing out-of-order
   state at the receiver triggers an immediate retransmission of the
   segment above the cumulative ACK — a classic dupack-style fast
   retransmit, which TCP-PR must never do. *)
module Broken_pr = struct
  include Core.Tcp_pr

  let on_ack t ~now (ack : Tcp.Types.ack) buf =
    on_ack t ~now ack buf;
    if ack.Tcp.Types.sacks <> [] then
      Tcp.Action_buffer.send_retx buf ~seq:ack.Tcp.Types.next
end

let broken_scenario =
  (* Full multi-path reordering: plenty of SACK-carrying ACKs. *)
  { Check.Oracle.seed = 0;
    topology = Check.Oracle.Lattice;
    loss = 0.01;
    jitter = 0.005;
    epsilon = 0.;
    route_flap = false;
    delayed_ack = false;
    total_segments = 60;
    bandwidth_scale = 1.;
    coalesce = None;
    rcv_buf = None;
    time_limit = 600. }

let test_oracle_catches_dupack_retransmit () =
  let report =
    Check.Oracle.run broken_scenario ~variant:("TCP-PR", (module Broken_pr))
  in
  Alcotest.(check bool) "corrupted sender fails" false
    (Check.Oracle.passed report);
  let from_pr_monitor =
    List.filter
      (fun v -> v.Check.Monitor.monitor = "tcp-pr")
      report.Check.Oracle.violations
  in
  Alcotest.(check bool) "tcp-pr monitor fired" true (from_pr_monitor <> []);
  let mentions_retransmission =
    List.exists
      (fun v ->
        let m = v.Check.Monitor.message in
        let has needle =
          let nl = String.length needle and ml = String.length m in
          let rec scan i =
            i + nl <= ml && (String.sub m i nl = needle || scan (i + 1))
          in
          scan 0
        in
        has "retransmission")
      from_pr_monitor
  in
  Alcotest.(check bool) "violation names the retransmission" true
    mentions_retransmission;
  (* The failure report must carry usable evidence: the event trace
     around the violation. *)
  Alcotest.(check bool) "trace tail present" true
    (report.Check.Oracle.trace_tail <> []);
  let rendered = Format.asprintf "%a" Check.Oracle.pp_report report in
  Alcotest.(check bool) "report renders probe events" true
    (String.length rendered > 0)

(* The same scenario with the honest TCP-PR passes: the violation above
   is the planted bug, not the environment. *)
let test_honest_pr_passes_broken_scenario () =
  let report =
    Check.Oracle.run broken_scenario ~variant:Experiments.Variants.tcp_pr
  in
  if not (Check.Oracle.passed report) then report_failure report

(* ------------------------------------------------------------------ *)
(* Golden traces                                                       *)
(* ------------------------------------------------------------------ *)

let golden_dir = "golden"

let test_golden_traces () =
  List.iter
    (fun (case_id, result) ->
      match result with
      | `Ok -> ()
      | `Missing ->
        Alcotest.failf "%s: no stored digest (run `make golden`)" case_id
      | `Mismatch detail ->
        Alcotest.failf
          "%s: behaviour drifted from the stored golden trace at %s\n\
           (if the change is intended, regenerate with `make golden`)"
          case_id detail)
    (Check.Golden.verify ~dir:golden_dir ~jobs:1)

let test_golden_jobs_independent () =
  let digests ~jobs =
    List.map
      (fun (case_id, trace) -> (case_id, Check.Golden.digest_of_trace trace))
      (Check.Golden.compute_all ~jobs)
  in
  Alcotest.(check (list (pair string string)))
    "digests identical at jobs=1 and jobs=2" (digests ~jobs:1)
    (digests ~jobs:2)

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "oracle"
    [ ( "monitors",
        [ Alcotest.test_case "delivery clean" `Quick test_delivery_clean;
          Alcotest.test_case "delivery catches skip" `Quick
            test_delivery_catches_skip;
          Alcotest.test_case "delivery catches silent duplicate" `Quick
            test_delivery_catches_silent_duplicate;
          Alcotest.test_case "conservation catches minted data" `Quick
            test_conservation_catches_minted_data;
          Alcotest.test_case "conservation catches duplicated ack" `Quick
            test_conservation_catches_duplicated_ack;
          Alcotest.test_case "cwnd catches collapse" `Quick
            test_cwnd_catches_collapse;
          Alcotest.test_case "rto catches out-of-bounds arm" `Quick
            test_rto_catches_out_of_bounds_arm;
          Alcotest.test_case "rto catches Karn violation" `Quick
            test_rto_catches_karn_violation;
          Alcotest.test_case "tcp-pr catches unauthorized retx" `Quick
            test_tcp_pr_catches_unauthorized_retx;
          Alcotest.test_case "tcp-pr allows timer-authorized retx" `Quick
            test_tcp_pr_allows_timer_authorized_retx ] );
      ( "chaos-harness",
        [ Alcotest.test_case "detects starvation" `Quick
            test_chaos_detects_starvation;
          Alcotest.test_case "clean network" `Quick test_chaos_clean_network ]
      );
      ( "chaos-liveness",
        List.map (fun v -> qcheck (torture_prop v)) Experiments.Variants.all );
      ( "reset",
        List.map (fun v -> qcheck (reset_prop v)) Experiments.Variants.all );
      ( "oracle-harness",
        [ Alcotest.test_case "detects starvation" `Quick
            test_oracle_detects_starvation;
          Alcotest.test_case "clean scenario passes" `Quick
            test_oracle_clean_scenario;
          Alcotest.test_case "tcp-pr resumes after back-off" `Quick
            test_tcp_pr_backoff_resumes;
          Alcotest.test_case "catches dupack retransmit" `Quick
            test_oracle_catches_dupack_retransmit;
          Alcotest.test_case "honest TCP-PR passes same scenario" `Quick
            test_honest_pr_passes_broken_scenario ] );
      ( "variants",
        [ Alcotest.test_case "find by label and canonical name" `Quick
            test_variant_lookup ] );
      ( "differential",
        List.map differential_case Experiments.Variants.all );
      ( "differential-qcheck",
        List.map
          (fun v -> qcheck (differential_prop v))
          [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ] );
      ( "golden",
        [ Alcotest.test_case "traces match stored digests" `Quick
            test_golden_traces;
          Alcotest.test_case "digests independent of jobs" `Quick
            test_golden_jobs_independent ] ) ]
