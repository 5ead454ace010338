(* Tests for the paper's algorithm: the Ewrtt envelope (eq. 1 and the
   Newton approximation of footnote 5) and the TCP-PR sender state
   machine of Table 1 / Section 3.2. *)


(* The handlers now write into an {!Tcp.Action_buffer.t} instead of
   returning a list; shadow them with list-returning adapters so the
   assertions below keep their original shape. *)
module Core = struct
  include Core

  module Tcp_pr = struct
    include Tcp_pr

    let start t ~now = Tcp.Action_buffer.collect (Tcp_pr.start t ~now)

    let on_ack t ~now ack = Tcp.Action_buffer.collect (Tcp_pr.on_ack t ~now ack)

    let on_timer t ~now ~key =
      Tcp.Action_buffer.collect (Tcp_pr.on_timer t ~now ~key)
  end
end

let check_float = Alcotest.(check (float 1e-9))

let sends actions =
  List.filter_map
    (function Tcp.Action.Send { seq; retx } -> Some (seq, retx) | _ -> None)
    actions

let new_sends actions =
  List.filter_map (fun (seq, retx) -> if retx then None else Some seq)
    (sends actions)

let retransmissions actions =
  List.filter_map (fun (seq, retx) -> if retx then Some seq else None)
    (sends actions)

let timer_sets actions =
  List.filter_map
    (function
      | Tcp.Action.Set_timer { key; delay } -> Some (key, delay) | _ -> None)
    actions

let ack ?(sacks = []) ?dsack ~next ~for_seq () =
  let block (first, last) = { Tcp.Types.first; last } in
  { Tcp.Types.next;
    sacks = List.map block sacks;
    dsack = Option.map block dsack;
    for_seq;
    for_retx = false;
    serial = 0;
    rwnd = Tcp.Types.rwnd_unbounded }

let config ?(alpha = 0.995) ?(beta = 3.0) ?(cwnd = 1.) ?(total = None) () =
  { Tcp.Config.default with
    Tcp.Config.pr_alpha = alpha;
    pr_beta = beta;
    initial_cwnd = cwnd;
    total_segments = total }

let make ?alpha ?beta ?cwnd ?total () =
  let t = Core.Tcp_pr.create (config ?alpha ?beta ?cwnd ?total ()) in
  (t, Core.Tcp_pr.start t ~now:0.)

(* ------------------------------------------------------------------ *)
(* Newton approximation (footnote 5)                                   *)
(* ------------------------------------------------------------------ *)

let test_newton_accuracy () =
  List.iter
    (fun cwnd ->
      let exact = exp (log 0.995 /. cwnd) in
      let approx = Core.Ewrtt.newton ~alpha:0.995 ~cwnd ~iterations:2 in
      Alcotest.(check bool)
        (Printf.sprintf "2 iterations accurate at cwnd=%g" cwnd)
        true
        (abs_float (approx -. exact) < 1e-4))
    [ 1.; 2.; 4.; 32.; 256.; 4096. ]

let test_newton_improves_with_iterations () =
  let exact = exp (log 0.5 /. 10.) in
  let err n = abs_float (Core.Ewrtt.newton ~alpha:0.5 ~cwnd:10. ~iterations:n -. exact) in
  Alcotest.(check bool) "more iterations, smaller error" true
    (err 4 <= err 2 && err 2 <= err 1)

let test_newton_cwnd_one_exact () =
  check_float "cwnd=1 gives alpha itself" 0.995
    (Core.Ewrtt.newton ~alpha:0.995 ~cwnd:1. ~iterations:2)

let newton_prop =
  QCheck.Test.make ~name:"newton stays in (alpha, 1]" ~count:500
    QCheck.(pair (float_range 0.1 0.9999) (float_range 1. 1000.))
    (fun (alpha, cwnd) ->
      let x = Core.Ewrtt.newton ~alpha ~cwnd ~iterations:2 in
      x > alpha -. 1e-9 && x <= 1. +. 1e-9)

(* Footnote 5's regime: alpha near 1 (memory of a few hundred RTTs).
   Two Newton iterations must track exp(log alpha / cwnd) across the
   whole plausible window range, or the envelope decays at the wrong
   rate on exactly the paths TCP-PR targets. *)
let newton_vs_exact_prop =
  QCheck.Test.make ~name:"newton tracks exact alpha^(1/cwnd)" ~count:500
    QCheck.(pair (float_range 0.9 0.9999) (float_range 1. 10_000.))
    (fun (alpha, cwnd) ->
      let config = { Tcp.Config.default with Tcp.Config.pr_alpha = alpha } in
      let e = Core.Ewrtt.create config in
      let approx = Core.Ewrtt.decay_factor e ~cwnd in
      let exact = Core.Ewrtt.exact_decay_factor e ~cwnd in
      abs_float (approx -. exact) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Ewrtt envelope                                                      *)
(* ------------------------------------------------------------------ *)

let envelope () = Core.Ewrtt.create (config ())

let test_ewrtt_first_sample_initialises () =
  let e = envelope () in
  Core.Ewrtt.on_sample e ~cwnd:4. ~sample:0.05;
  check_float "ewrtt = first sample" 0.05 (Core.Ewrtt.ewrtt e);
  check_float "mxrtt = beta * ewrtt" 0.15 (Core.Ewrtt.mxrtt e)

let test_ewrtt_captures_spike () =
  let e = envelope () in
  Core.Ewrtt.on_sample e ~cwnd:4. ~sample:0.05;
  Core.Ewrtt.on_sample e ~cwnd:4. ~sample:0.5;
  check_float "spike dominates" 0.5 (Core.Ewrtt.ewrtt e);
  (* A small sample afterwards barely moves the envelope down. *)
  Core.Ewrtt.on_sample e ~cwnd:4. ~sample:0.05;
  Alcotest.(check bool) "slow decay" true (Core.Ewrtt.ewrtt e > 0.49)

(* Decay is alpha per round-trip regardless of the window: cwnd
   successive updates multiply the envelope by alpha. *)
let test_ewrtt_decay_per_rtt () =
  let decay_after cwnd =
    let e = envelope () in
    Core.Ewrtt.on_sample e ~cwnd ~sample:1.0;
    for _ = 1 to int_of_float cwnd do
      Core.Ewrtt.on_sample e ~cwnd ~sample:0.01
    done;
    Core.Ewrtt.ewrtt e
  in
  let small_window = decay_after 2. in
  let large_window = decay_after 64. in
  Alcotest.(check bool) "same decay per RTT (within Newton error)" true
    (abs_float (small_window -. large_window) < 0.01);
  Alcotest.(check bool) "roughly alpha per RTT" true
    (abs_float (small_window -. 0.995) < 0.01)

let ewrtt_envelope_prop =
  (* The envelope never falls below the latest sample. *)
  QCheck.Test.make ~name:"ewrtt >= latest sample" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.001 2.))
    (fun samples ->
      let e = envelope () in
      List.for_all
        (fun sample ->
          Core.Ewrtt.on_sample e ~cwnd:8. ~sample;
          Core.Ewrtt.ewrtt e >= sample -. 1e-12)
        samples)

(* ------------------------------------------------------------------ *)
(* TCP-PR sender                                                       *)
(* ------------------------------------------------------------------ *)

let test_pr_start () =
  let t, actions = make ~cwnd:2. () in
  Alcotest.(check (list int)) "initial window" [ 0; 1 ] (new_sends actions);
  Alcotest.(check bool) "drop timer armed" true
    (List.mem_assoc 0 (timer_sets actions));
  Alcotest.(check int) "outstanding" 2 (Core.Tcp_pr.outstanding t)

let test_pr_slow_start_growth () =
  let t, _ = make () in
  ignore (Core.Tcp_pr.on_ack t ~now:0.05 (ack ~next:1 ~for_seq:0 ()));
  check_float "cwnd doubles per RTT in slow start" 2. (Core.Tcp_pr.cwnd t);
  ignore (Core.Tcp_pr.on_ack t ~now:0.1 (ack ~next:2 ~for_seq:1 ()));
  check_float "cwnd 3" 3. (Core.Tcp_pr.cwnd t)

let test_pr_flush_respects_window () =
  let t, actions = make ~cwnd:4. () in
  Alcotest.(check (list int)) "window of 4" [ 0; 1; 2; 3 ] (new_sends actions);
  (* One ack frees one slot and grows the window: two sends. *)
  let a = Core.Tcp_pr.on_ack t ~now:0.05 (ack ~next:1 ~for_seq:0 ()) in
  Alcotest.(check (list int)) "self-clocked" [ 4; 5 ] (new_sends a)

let test_pr_initial_mxrtt () =
  let t, _ = make () in
  (* Before any sample: mxrtt = beta * initial ewrtt = 3 s. *)
  check_float "initial threshold" 3. (Core.Tcp_pr.mxrtt t)

let test_pr_mxrtt_tracks_samples () =
  let t, _ = make () in
  ignore (Core.Tcp_pr.on_ack t ~now:0.05 (ack ~next:1 ~for_seq:0 ()));
  check_float "mxrtt = beta * rtt" 0.15 (Core.Tcp_pr.mxrtt t)

let test_pr_drop_detection_and_retransmit () =
  let t, _ = make ~cwnd:1. () in
  (* No ack ever arrives; the drop timer fires at mxrtt = 3 s. *)
  let actions = Core.Tcp_pr.on_timer t ~now:3. ~key:0 in
  Alcotest.(check (list int)) "retransmits 0" [ 0 ] (retransmissions actions);
  let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
  check_float "one drop detected" 1. (metric "drops_detected")

let test_pr_no_drop_before_threshold () =
  let t, _ = make ~cwnd:1. () in
  let actions = Core.Tcp_pr.on_timer t ~now:1. ~key:0 in
  Alcotest.(check (list (pair int bool))) "nothing retransmitted" []
    (sends actions);
  (* The timer is re-armed for the real deadline. *)
  Alcotest.(check bool) "re-armed" true (List.mem_assoc 0 (timer_sets actions))

(* The window is halved to half the cwnd *at send time*, not half the
   current cwnd (Table 1: cwnd := cwnd(n)/2). *)
let test_pr_snapshot_halving () =
  let t, _ = make ~cwnd:1. () in
  (* Packet 0 sent with cwnd 1. Grow the window with acks for later
     packets... *)
  ignore (Core.Tcp_pr.on_ack t ~now:0.02 (ack ~next:1 ~for_seq:0 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.04 (ack ~next:2 ~for_seq:1 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.06 (ack ~next:3 ~for_seq:2 ()));
  check_float "grown" 4. (Core.Tcp_pr.cwnd t);
  (* Packets 3,4,5,6 are now outstanding, sent with cwnd 2..4. When the
     oldest (seq 3, sent with cwnd 2 at t=0.04) expires, cwnd becomes
     cwnd(3)/2 = 1.5, not 4/2. mxrtt is now beta * 0.02 = 0.06. *)
  let deadline = 0.04 +. Core.Tcp_pr.mxrtt t in
  ignore (Core.Tcp_pr.on_timer t ~now:deadline ~key:0);
  Alcotest.(check bool)
    (Printf.sprintf "halved against snapshot (got %g)" (Core.Tcp_pr.cwnd t))
    true
    (Core.Tcp_pr.cwnd t < 2.)

let test_pr_memorize_suppresses_cascade () =
  (* A window of 6 all lost: the first detection halves, the remaining
     memorized detections must not halve again. *)
  let t, _ = make ~cwnd:6. () in
  Alcotest.(check int) "six outstanding" 6 (Core.Tcp_pr.outstanding t);
  ignore (Core.Tcp_pr.on_timer t ~now:3. ~key:0);
  let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
  check_float "all detected" 6. (metric "drops_detected");
  (* One halving: cwnd = 6/2 = 3; the other five drops were memorized
     (and 5 > cwnd/2 + 1 = 2.5 triggers the extreme reset, cwnd 1). *)
  Alcotest.(check bool) "no cascading halvings below 1" true
    (Core.Tcp_pr.cwnd t >= 1.);
  check_float "extreme reset happened" 1. (metric "extreme_resets")

let test_pr_memorize_cleared_by_acks () =
  let t, _ = make ~cwnd:4. ~total:(Some 4) () in
  (* Lose only packet 0: its deadline passes while 1..3 are acked
     individually beforehand (duplicates: next stays 0). *)
  ignore (Core.Tcp_pr.on_ack t ~now:0.02 (ack ~next:0 ~for_seq:1 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.03 (ack ~next:0 ~for_seq:2 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.04 (ack ~next:0 ~for_seq:3 ()));
  Alcotest.(check int) "only the hole outstanding" 1
    (Core.Tcp_pr.outstanding t);
  let deadline = Core.Tcp_pr.mxrtt t +. 0.001 in
  ignore (Core.Tcp_pr.on_timer t ~now:deadline ~key:0);
  let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
  check_float "single drop" 1. (metric "drops_detected");
  (* Snapshot of to-be-ack taken after removing the dropped packet: it
     is empty, so no memorized packets remain. *)
  Alcotest.(check int) "memorize empty" 0 (Core.Tcp_pr.memorize_size t)

(* Duplicate ACKs identify their packet (for_seq): packets buffered
   behind a hole are acknowledged individually and never expire. *)
let test_pr_dupacks_remove_from_to_be_ack () =
  let t, _ = make ~cwnd:4. ~total:(Some 4) () in
  ignore (Core.Tcp_pr.on_ack t ~now:0.02 (ack ~next:0 ~for_seq:1 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.02 (ack ~next:0 ~for_seq:2 ()));
  Alcotest.(check int) "two removed" 2 (Core.Tcp_pr.outstanding t)

let test_pr_ignores_uninformative_duplicates () =
  let t, _ = make ~cwnd:2. () in
  ignore (Core.Tcp_pr.on_ack t ~now:0.02 (ack ~next:2 ~for_seq:1 ()));
  (* A pure duplicate for an already-acked packet changes nothing. *)
  let before = Core.Tcp_pr.cwnd t in
  let actions = Core.Tcp_pr.on_ack t ~now:0.03 (ack ~next:2 ~for_seq:1 ()) in
  Alcotest.(check int) "no actions" 0 (List.length actions);
  check_float "window unchanged" before (Core.Tcp_pr.cwnd t)

let test_pr_false_drop_cancels_retransmission () =
  let t, _ = make ~cwnd:2. () in
  (* Both packets expire (reordering, not loss)... *)
  let actions = Core.Tcp_pr.on_timer t ~now:3. ~key:0 in
  (* cwnd collapsed to 1 so only seq 0 is resent; seq 1 stays queued. *)
  Alcotest.(check (list int)) "first resent" [ 0 ] (retransmissions actions);
  (* ...but the ACK for packet 1 then arrives: the pending
     retransmission of 1 must be cancelled. *)
  ignore (Core.Tcp_pr.on_ack t ~now:3.01 (ack ~next:0 ~for_seq:1 ()));
  let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
  check_float "false drop recorded" 1. (metric "false_drops");
  (* Retransmission of 0 arrives; cumulative jumps past both; no
     further retransmission of 1 may happen. *)
  let a = Core.Tcp_pr.on_ack t ~now:3.05 (ack ~next:2 ~for_seq:0 ()) in
  Alcotest.(check (list int)) "no spurious resend of 1" [] (retransmissions a)

let test_pr_false_drop_inflates_envelope () =
  let t, _ = make ~cwnd:2. () in
  ignore (Core.Tcp_pr.on_timer t ~now:3. ~key:0);
  (* Packet 1's ACK arrives 3.5 s after it was sent at t=0: the
     envelope must absorb that 3.5 s "RTT". *)
  ignore (Core.Tcp_pr.on_ack t ~now:3.5 (ack ~next:0 ~for_seq:1 ()));
  check_float "envelope captured late ack" 3.5 (Core.Tcp_pr.ewrtt t)

let test_pr_extreme_losses_reset () =
  let t, _ = make ~cwnd:8. () in
  Alcotest.(check int) "window out" 8 (Core.Tcp_pr.outstanding t);
  ignore (Core.Tcp_pr.on_timer t ~now:3. ~key:0);
  let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
  check_float "extreme reset" 1. (metric "extreme_resets");
  check_float "cwnd collapsed" 1. (Core.Tcp_pr.cwnd t);
  Alcotest.(check bool) "in back-off" true (Core.Tcp_pr.in_extreme_backoff t);
  Alcotest.(check bool) "mxrtt >= 1 s" true (Core.Tcp_pr.mxrtt t >= 1.)

let test_pr_extreme_backoff_doubles_mxrtt () =
  let t, _ = make ~cwnd:8. () in
  ignore (Core.Tcp_pr.on_timer t ~now:3. ~key:0);
  let mxrtt1 = Core.Tcp_pr.mxrtt t in
  (* The back-off delay expires; one retransmission goes out... *)
  let resume = Core.Tcp_pr.on_timer t ~now:(3. +. mxrtt1 +. 0.01) ~key:1 in
  Alcotest.(check bool) "one packet resent" true
    (List.length (retransmissions resume) = 1);
  (* ...and is lost too: mxrtt doubles instead of another halving. *)
  ignore
    (Core.Tcp_pr.on_timer t ~now:(3. +. (2. *. mxrtt1) +. 0.1) ~key:0);
  let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
  check_float "doubling recorded" 1. (metric "mxrtt_doublings");
  Alcotest.(check bool) "mxrtt grew" true (Core.Tcp_pr.mxrtt t > mxrtt1 *. 1.9)

let test_pr_ack_leaves_extreme () =
  let t, _ = make ~cwnd:8. () in
  ignore (Core.Tcp_pr.on_timer t ~now:3. ~key:0);
  Alcotest.(check bool) "in back-off" true (Core.Tcp_pr.in_extreme_backoff t);
  ignore (Core.Tcp_pr.on_ack t ~now:3.2 (ack ~next:0 ~for_seq:5 ()));
  Alcotest.(check bool) "left back-off" false (Core.Tcp_pr.in_extreme_backoff t);
  (* mxrtt returns to beta * ewrtt. *)
  check_float "threshold recomputed"
    (3. *. Core.Tcp_pr.ewrtt t)
    (Core.Tcp_pr.mxrtt t)

let test_pr_bounded_transfer_finishes () =
  let t, actions = make ~cwnd:4. ~total:(Some 3) () in
  Alcotest.(check (list int)) "three segments" [ 0; 1; 2 ] (new_sends actions);
  ignore (Core.Tcp_pr.on_ack t ~now:0.05 (ack ~next:3 ~for_seq:2 ()));
  Alcotest.(check bool) "finished" true (Core.Tcp_pr.finished t);
  let late = Core.Tcp_pr.on_ack t ~now:0.06 (ack ~next:3 ~for_seq:2 ()) in
  Alcotest.(check int) "silent after finish" 0 (List.length late)

let test_pr_congestion_avoidance_after_drop () =
  (* Lose only segment 0 of a window of 4: segments 1..3 are
     acknowledged individually first, then the drop timer fires. *)
  let t, _ = make ~cwnd:4. ~total:(Some 4) () in
  ignore (Core.Tcp_pr.on_ack t ~now:0.02 (ack ~next:0 ~for_seq:1 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.03 (ack ~next:0 ~for_seq:2 ()));
  ignore (Core.Tcp_pr.on_ack t ~now:0.04 (ack ~next:0 ~for_seq:3 ()));
  ignore (Core.Tcp_pr.on_timer t ~now:(Core.Tcp_pr.mxrtt t +. 0.001) ~key:0);
  (* cwnd(0)/2 = 2, ssthr = 2, mode = congestion avoidance: the next
     acked packet grows the window by 1/cwnd, not 1. *)
  let cwnd0 = Core.Tcp_pr.cwnd t in
  check_float "halved against snapshot" 2. cwnd0;
  ignore (Core.Tcp_pr.on_ack t ~now:0.2 (ack ~next:4 ~for_seq:0 ()));
  let growth = Core.Tcp_pr.cwnd t -. cwnd0 in
  Alcotest.(check bool)
    (Printf.sprintf "linear growth (got %g)" growth)
    true
    (growth > 0. && growth < 0.99)

(* Against a loss-free pipe with a fixed RTT, TCP-PR never declares a
   drop and delivers every segment exactly once, whatever the RTT. *)
let pr_lossless_prop =
  QCheck.Test.make ~name:"no false drops on a clean fixed-RTT pipe" ~count:60
    QCheck.(pair (float_range 0.01 0.5) (int_range 20 200))
    (fun (rtt, total) ->
      let t = Core.Tcp_pr.create (config ~total:(Some total) ()) in
      let receiver = Tcp.Receiver.create (config ()) in
      (* (delivery time, seq) of data in flight, as a sorted agenda. *)
      let agenda = ref [] in
      let now = ref 0. in
      let schedule at seq = agenda := List.sort compare ((at, seq) :: !agenda) in
      let handle actions =
        List.iter
          (function
            | Tcp.Action.Send { seq; _ } -> schedule (!now +. rtt) seq
            | Tcp.Action.Set_timer _ | Tcp.Action.Cancel_timer _ -> ())
          actions
      in
      handle (Core.Tcp_pr.start t ~now:!now);
      let steps = ref 0 in
      while (not (Core.Tcp_pr.finished t)) && !steps < 10_000 do
        incr steps;
        match !agenda with
        | [] -> steps := 10_000
        | (at, seq) :: rest ->
          agenda := rest;
          now := at;
          let ack = Tcp.Receiver.on_data receiver ~seq () in
          handle (Core.Tcp_pr.on_ack t ~now:!now ack)
      done;
      let metric name = List.assoc name (Core.Tcp_pr.metrics t) in
      Core.Tcp_pr.finished t
      && metric "drops_detected" = 0.
      && metric "retransmits" = 0.)

let () =
  Alcotest.run "tcp-pr"
    [ ( "newton",
        [ Alcotest.test_case "accuracy" `Quick test_newton_accuracy;
          Alcotest.test_case "improves with iterations" `Quick
            test_newton_improves_with_iterations;
          Alcotest.test_case "cwnd=1 exact" `Quick test_newton_cwnd_one_exact;
          QCheck_alcotest.to_alcotest ~long:false newton_prop;
          QCheck_alcotest.to_alcotest ~long:false newton_vs_exact_prop ] );
      ( "ewrtt",
        [ Alcotest.test_case "first sample" `Quick
            test_ewrtt_first_sample_initialises;
          Alcotest.test_case "captures spike" `Quick test_ewrtt_captures_spike;
          Alcotest.test_case "decay per RTT" `Quick test_ewrtt_decay_per_rtt;
          QCheck_alcotest.to_alcotest ~long:false ewrtt_envelope_prop ] );
      ( "sender",
        [ Alcotest.test_case "start" `Quick test_pr_start;
          Alcotest.test_case "slow start" `Quick test_pr_slow_start_growth;
          Alcotest.test_case "flush respects window" `Quick
            test_pr_flush_respects_window;
          Alcotest.test_case "initial mxrtt" `Quick test_pr_initial_mxrtt;
          Alcotest.test_case "mxrtt tracks samples" `Quick
            test_pr_mxrtt_tracks_samples;
          Alcotest.test_case "drop detection" `Quick
            test_pr_drop_detection_and_retransmit;
          Alcotest.test_case "no early drops" `Quick
            test_pr_no_drop_before_threshold;
          Alcotest.test_case "snapshot halving" `Quick test_pr_snapshot_halving;
          Alcotest.test_case "memorize suppresses cascade" `Quick
            test_pr_memorize_suppresses_cascade;
          Alcotest.test_case "memorize cleared by acks" `Quick
            test_pr_memorize_cleared_by_acks;
          Alcotest.test_case "dupacks identify packets" `Quick
            test_pr_dupacks_remove_from_to_be_ack;
          Alcotest.test_case "ignores uninformative dups" `Quick
            test_pr_ignores_uninformative_duplicates;
          Alcotest.test_case "false drop cancelled" `Quick
            test_pr_false_drop_cancels_retransmission;
          Alcotest.test_case "false drop inflates envelope" `Quick
            test_pr_false_drop_inflates_envelope;
          Alcotest.test_case "extreme losses" `Quick test_pr_extreme_losses_reset;
          Alcotest.test_case "extreme back-off doubles" `Quick
            test_pr_extreme_backoff_doubles_mxrtt;
          Alcotest.test_case "ack leaves extreme" `Quick
            test_pr_ack_leaves_extreme;
          Alcotest.test_case "bounded transfer" `Quick
            test_pr_bounded_transfer_finishes;
          Alcotest.test_case "congestion avoidance after drop" `Quick
            test_pr_congestion_avoidance_after_drop;
          QCheck_alcotest.to_alcotest ~long:false pr_lossless_prop ] ) ]
