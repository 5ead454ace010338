(* Tests for the SACK engine: scoreboard loss detection, pipe-governed
   transmission, DSACK spurious-retransmission responses (the
   Blanton-Allman policies), and the TD-FR delayed trigger. *)


(* The handlers now write into an {!Tcp.Action_buffer.t} instead of
   returning a list; shadow them with list-returning adapters so the
   assertions below keep their original shape. *)
module Tcp = struct
  include Tcp

  module Sack_core = struct
    include Sack_core

    let start t ~now = Action_buffer.collect (Sack_core.start t ~now)

    let on_ack t ~now ack = Action_buffer.collect (Sack_core.on_ack t ~now ack)

    let on_timer t ~now ~key =
      Action_buffer.collect (Sack_core.on_timer t ~now ~key)
  end
end

let check_float = Alcotest.(check (float 1e-9))

let sends actions =
  List.filter_map
    (function Tcp.Action.Send { seq; retx } -> Some (seq, retx) | _ -> None)
    actions

let retransmissions actions =
  List.filter_map (fun (seq, retx) -> if retx then Some seq else None)
    (sends actions)

let new_sends actions =
  List.filter_map (fun (seq, retx) -> if retx then None else Some seq)
    (sends actions)

let timer_sets actions =
  List.filter_map
    (function
      | Tcp.Action.Set_timer { key; delay } -> Some (key, delay) | _ -> None)
    actions

let timer_cancels actions =
  List.filter_map
    (function Tcp.Action.Cancel_timer { key } -> Some key | _ -> None)
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

let make ?(response = Tcp.Sack_core.plain_sack)
    ?(trigger = Tcp.Sack_core.Immediate) ?(cwnd = 8.) () =
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = cwnd } in
  let t = Tcp.Sack_core.create ~response ~trigger config in
  ignore (Tcp.Sack_core.start t ~now:0.);
  t

(* Standard opening: a window is in flight, segment [base] is lost, the
   next three segments arrive and produce SACK-bearing duplicates.
   Returns the actions of the third duplicate. *)
let three_dups ?(base = 0) t =
  let dup i =
    Tcp.Sack_core.on_ack t ~now:(0.1 +. (0.01 *. float_of_int i))
      (ack ~next:base ~for_seq:(base + i) ~sacks:[ (base + 1, base + i) ] ())
  in
  ignore (dup 1);
  ignore (dup 2);
  dup 3

let test_sack_loss_detection_and_retransmit () =
  let t = make () in
  let a3 = three_dups t in
  Alcotest.(check (list int)) "retransmits the hole" [ 0 ] (retransmissions a3);
  Alcotest.(check bool) "in recovery" true (Tcp.Sack_core.in_recovery t);
  check_float "halved" 4. (Tcp.Sack_core.cwnd t)

let test_sack_no_retransmit_before_dupthresh () =
  let t = make () in
  let a =
    Tcp.Sack_core.on_ack t ~now:0.1
      (ack ~next:0 ~for_seq:1 ~sacks:[ (1, 1) ] ())
  in
  Alcotest.(check (list int)) "no retx after one sack" [] (retransmissions a);
  let a =
    Tcp.Sack_core.on_ack t ~now:0.11
      (ack ~next:0 ~for_seq:2 ~sacks:[ (1, 2) ] ())
  in
  Alcotest.(check (list int)) "no retx after two" [] (retransmissions a)

let test_sack_pipe_accounting () =
  let t = make () in
  ignore (three_dups t);
  (* Flight is 10 (0..7 plus two limited-transmit segments), 3 SACKed,
     the lost segment retransmitted and back in flight: pipe = 7. It
     legitimately exceeds the halved window right after the reduction
     and decays as further SACKs arrive. *)
  Alcotest.(check int) "pipe" 7 (Tcp.Sack_core.pipe t)

let test_sack_extended_limited_transmit () =
  (* SACKed arrivals shrink the pipe, releasing new data before any
     loss is declared. *)
  let t = make ~cwnd:4. () in
  let a =
    Tcp.Sack_core.on_ack t ~now:0.1
      (ack ~next:0 ~for_seq:1 ~sacks:[ (1, 1) ] ())
  in
  Alcotest.(check (list int)) "one new segment" [ 4 ] (new_sends a)

let test_sack_recovery_exit_restores_growth () =
  let t = make () in
  ignore (three_dups t);
  (* Cumulative covering everything outstanding exits recovery. *)
  ignore (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:20 ~for_seq:0 ()));
  Alcotest.(check bool) "left recovery" false (Tcp.Sack_core.in_recovery t);
  let before = Tcp.Sack_core.cwnd t in
  ignore (Tcp.Sack_core.on_ack t ~now:0.3 (ack ~next:21 ~for_seq:20 ()));
  Alcotest.(check bool) "window grows again" true (Tcp.Sack_core.cwnd t > before)

let test_sack_rto_marks_lost_and_slow_starts () =
  let t = make () in
  let actions = Tcp.Sack_core.on_timer t ~now:3. ~key:0 in
  check_float "cwnd 1" 1. (Tcp.Sack_core.cwnd t);
  Alcotest.(check (list int)) "retransmits first hole" [ 0 ]
    (retransmissions actions);
  Alcotest.(check bool) "timer re-armed" true
    (List.mem_assoc 0 (timer_sets actions))

let test_sack_max_burst_cap () =
  let t = make ~cwnd:64. () in
  (* A cumulative jump opens a huge window at once; at most 4 segments
     may leave per event. *)
  let a = Tcp.Sack_core.on_ack t ~now:0.1 (ack ~next:8 ~for_seq:7 ()) in
  Alcotest.(check bool) "burst capped" true (List.length (new_sends a) <= 4)

let test_sack_dupack_does_not_restart_rto () =
  let t = make () in
  let a =
    Tcp.Sack_core.on_ack t ~now:0.1
      (ack ~next:0 ~for_seq:1 ~sacks:[ (1, 1) ] ())
  in
  Alcotest.(check bool) "no rto restart on dup" false
    (List.mem_assoc 0 (timer_sets a));
  let a = Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:1 ~for_seq:0 ()) in
  Alcotest.(check bool) "advance restarts rto" true
    (List.mem_assoc 0 (timer_sets a))

(* --- DSACK responses ------------------------------------------------ *)

(* Force a spurious fast retransmission of seq 0 (it was merely
   reordered), then deliver the DSACK that reveals it. *)
let spurious_episode ?(response = Tcp.Sack_core.inc_by_1) () =
  let t = make ~response () in
  ignore (three_dups t);
  (* Late original arrives: cumulative jumps to 4. *)
  ignore (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:4 ~for_seq:0 ()));
  (* The retransmission lands as a duplicate: DSACK for 0. *)
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.21 (ack ~next:4 ~for_seq:0 ~dsack:(0, 0) ()));
  t

let test_dsack_detects_spurious () =
  let t = spurious_episode () in
  let metric name = List.assoc name (Tcp.Sack_core.metrics t) in
  check_float "one spurious detected" 1. (metric "spurious_detected")

let test_dsack_restores_window () =
  let t = spurious_episode ~response:Tcp.Sack_core.dsack_nm () in
  (* dupthresh unchanged for DSACK-NM... *)
  Alcotest.(check int) "dupthresh static" 3 (Tcp.Sack_core.dupthresh t);
  (* ...but ssthresh was restored to the pre-retransmit cwnd (8), so
     once recovery ends slow start climbs back: growth is +1 per ack,
     not +1/cwnd. *)
  ignore (Tcp.Sack_core.on_ack t ~now:0.3 (ack ~next:20 ~for_seq:9 ()));
  let before = Tcp.Sack_core.cwnd t in
  ignore (Tcp.Sack_core.on_ack t ~now:0.31 (ack ~next:21 ~for_seq:20 ()));
  Alcotest.(check bool) "slow-start growth (+1)" true
    (Tcp.Sack_core.cwnd t >= before +. 0.99)

let test_dsack_plain_sack_ignores () =
  let t = spurious_episode ~response:Tcp.Sack_core.plain_sack () in
  let metric name = List.assoc name (Tcp.Sack_core.metrics t) in
  check_float "nothing detected" 0. (metric "spurious_detected");
  Alcotest.(check int) "dupthresh untouched" 3 (Tcp.Sack_core.dupthresh t)

let test_dsack_inc_by_1 () =
  let t = spurious_episode ~response:Tcp.Sack_core.inc_by_1 () in
  Alcotest.(check int) "dupthresh incremented" 4 (Tcp.Sack_core.dupthresh t)

let test_dsack_inc_by_n_averages () =
  let t = make ~response:Tcp.Sack_core.inc_by_n ~cwnd:16. () in
  (* Seven duplicate ACKs before the late original arrives. *)
  for i = 1 to 7 do
    ignore
      (Tcp.Sack_core.on_ack t ~now:(0.1 +. (0.01 *. float_of_int i))
         (ack ~next:0 ~for_seq:i ~sacks:[ (1, i) ] ()))
  done;
  ignore (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:8 ~for_seq:0 ()));
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.21 (ack ~next:8 ~for_seq:0 ~dsack:(0, 0) ()));
  (* avg(3, 7) = 5. *)
  Alcotest.(check int) "averaged" 5 (Tcp.Sack_core.dupthresh t)

let test_dsack_ewma_stays_at_stable_observation () =
  let t = spurious_episode ~response:Tcp.Sack_core.ewma () in
  (* EWMA starts at 3 and the observation is 3: stays 3. *)
  Alcotest.(check int) "stable at observation" 3 (Tcp.Sack_core.dupthresh t)

let test_higher_dupthresh_tolerates_reordering () =
  let t = make ~response:Tcp.Sack_core.inc_by_1 ~cwnd:16. () in
  (* First spurious event raises dupthresh to 4... *)
  ignore (three_dups t);
  ignore (Tcp.Sack_core.on_ack t ~now:0.2 (ack ~next:4 ~for_seq:0 ()));
  ignore
    (Tcp.Sack_core.on_ack t ~now:0.21 (ack ~next:4 ~for_seq:0 ~dsack:(0, 0) ()));
  Alcotest.(check int) "dupthresh 4" 4 (Tcp.Sack_core.dupthresh t);
  (* ...so the same 3-duplicate reordering pattern no longer triggers a
     retransmission. *)
  let a3 = three_dups ~base:4 t in
  Alcotest.(check (list int)) "tolerated" [] (retransmissions a3)

(* --- TD-FR ----------------------------------------------------------- *)

let test_td_fr_delays_retransmission () =
  let t = make ~trigger:Tcp.Sack_core.Time_delayed () in
  let a3 = three_dups t in
  Alcotest.(check (list int)) "no immediate retx" [] (retransmissions a3);
  Alcotest.(check bool) "not yet in recovery" false
    (Tcp.Sack_core.in_recovery t)

let test_td_fr_fires_and_retransmits () =
  let t = make ~trigger:Tcp.Sack_core.Time_delayed () in
  ignore (three_dups t);
  let a = Tcp.Sack_core.on_timer t ~now:2. ~key:1 in
  Alcotest.(check (list int)) "retransmits after delay" [ 0 ]
    (retransmissions a);
  Alcotest.(check bool) "entered recovery" true (Tcp.Sack_core.in_recovery t)

let test_td_fr_cancelled_by_reordering () =
  let t = make ~trigger:Tcp.Sack_core.Time_delayed () in
  ignore (three_dups t);
  (* The "lost" packet arrives before the delay expires: cumulative
     covers it and the wait is cancelled. *)
  let a = Tcp.Sack_core.on_ack t ~now:0.15 (ack ~next:4 ~for_seq:0 ()) in
  Alcotest.(check (list int)) "delay cancelled" [ 1 ] (timer_cancels a);
  let late = Tcp.Sack_core.on_timer t ~now:2. ~key:1 in
  Alcotest.(check (list int)) "a stale firing does nothing" []
    (retransmissions late);
  Alcotest.(check bool) "never entered recovery" false
    (Tcp.Sack_core.in_recovery t)

let test_td_fr_window_survives_reordering () =
  let t = make ~trigger:Tcp.Sack_core.Time_delayed () in
  ignore (three_dups t);
  ignore (Tcp.Sack_core.on_ack t ~now:0.15 (ack ~next:4 ~for_seq:0 ()));
  (* Reordering resolved without recovery: the window was never
     halved. *)
  Alcotest.(check bool) "window not reduced" true (Tcp.Sack_core.cwnd t >= 8.)

(* --- Loss marking against a rescanning reference ---------------------- *)

module Int_set = Set.Make (Int)

(* RFC 6675 IsLost the simple way: on every ACK, rescan the whole
   window and declare lost each unaccounted-for segment with at least
   dupthresh SACKed segments above it. The engine marks incrementally
   above a watermark; this scoreboard, fed the same ACKs, the same
   timeouts and the engine's own sends, must agree with it on [pipe]
   and on which segment every retransmission repairs. *)
module Reference = struct
  type t = {
    mutable una : int;
    mutable next : int;
    mutable sacked : Int_set.t;
    mutable lost : Int_set.t;
    mutable retx_out : Int_set.t;
  }

  let create () =
    { una = 0;
      next = 0;
      sacked = Int_set.empty;
      lost = Int_set.empty;
      retx_out = Int_set.empty }

  let sacked_above r seq =
    Int_set.cardinal (Int_set.filter (fun s -> s > seq) r.sacked)

  let on_ack r (ack : Tcp.Types.ack) ~dupthresh =
    List.iter
      (fun { Tcp.Types.first; last } ->
        for seq = max first r.una to last do
          r.sacked <- Int_set.add seq r.sacked;
          r.lost <- Int_set.remove seq r.lost
        done)
      ack.Tcp.Types.sacks;
    if ack.Tcp.Types.next > r.una then begin
      r.una <- ack.Tcp.Types.next;
      let keep = Int_set.filter (fun s -> s >= r.una) in
      r.sacked <- keep r.sacked;
      r.lost <- keep r.lost;
      r.retx_out <- keep r.retx_out
    end;
    match Int_set.max_elt_opt r.sacked with
    | None -> ()
    | Some high ->
      for seq = r.una to high - 1 do
        if
          not
            (Int_set.mem seq r.sacked || Int_set.mem seq r.lost
           || Int_set.mem seq r.retx_out)
          && sacked_above r seq >= dupthresh
        then r.lost <- Int_set.add seq r.lost
      done

  let on_rto r =
    r.retx_out <- Int_set.empty;
    for seq = r.una to r.next - 1 do
      if not (Int_set.mem seq r.sacked) then r.lost <- Int_set.add seq r.lost
    done

  (* Every retransmission must repair the smallest lost segment, and new
     data must go out in order. *)
  let on_sends r sends =
    List.for_all
      (fun (seq, retx) ->
        if retx then (
          match Int_set.min_elt_opt r.lost with
          | Some s when s = seq ->
            r.lost <- Int_set.remove seq r.lost;
            r.retx_out <- Int_set.add seq r.retx_out;
            true
          | _ -> false)
        else if seq = r.next then begin
          r.next <- seq + 1;
          true
        end
        else false)
      sends

  let pipe r =
    r.next - r.una - Int_set.cardinal r.sacked - Int_set.cardinal r.lost
end

(* Feed the engine's latest actions to the reference and compare. *)
let agree t r actions =
  Reference.on_sends r (sends actions)
  && Tcp.Sack_core.pipe t = Reference.pipe r

let step t r ~now ack =
  let actions = Tcp.Sack_core.on_ack t ~now ack in
  Reference.on_ack r ack ~dupthresh:(Tcp.Sack_core.dupthresh t);
  Alcotest.(check bool) "engine agrees with the reference" true
    (agree t r actions);
  actions

(* One engine and a real receiver across a path that drops and holds
   back segments. [fate ~seq ~attempt] (attempt 0 is the original
   transmission) returns [None] to drop the segment, or the extra delay
   it suffers. Segments leave a 1 ms-per-packet link, cross 50 ms, and
   their ACKs return in 50 ms; the retransmission timer fires as the
   engine arms it. Runs [steps] ACK or timeout events, or stops at the
   first disagreement with the reference; returns whether every step
   agreed. *)
let run_path ?(config = Tcp.Config.default) ~response ~fate ~steps () =
  let t = Tcp.Sack_core.create ~response config in
  let receiver = Tcp.Receiver.create config in
  let r = Reference.create () in
  let attempts = Hashtbl.create 64 in
  let link_free = ref 0. in
  let in_flight = ref [] in
  let transmit ~now (seq, retx) =
    let attempt = Option.value (Hashtbl.find_opt attempts seq) ~default:0 in
    Hashtbl.replace attempts seq (attempt + 1);
    let depart = Float.max now !link_free in
    link_free := depart +. 0.001;
    match fate ~seq ~attempt with
    | None -> ()
    | Some extra ->
      let arrival = (depart +. 0.05 +. extra, seq, retx) in
      in_flight := List.merge compare !in_flight [ arrival ]
  in
  let ok = ref true in
  let rto_at = ref infinity in
  let emit ~now actions =
    ok := !ok && agree t r actions;
    List.iter
      (function
        | Tcp.Action.Send { seq; retx } -> transmit ~now (seq, retx)
        | Tcp.Action.Set_timer { key = 0; delay } -> rto_at := now +. delay
        | Tcp.Action.Cancel_timer { key = 0 } -> rto_at := infinity
        | Tcp.Action.Set_timer _ | Tcp.Action.Cancel_timer _ -> ())
      actions
  in
  emit ~now:0. (Tcp.Sack_core.start t ~now:0.);
  let n = ref 0 in
  while !ok && !n < steps do
    incr n;
    match !in_flight with
    | (at, seq, retx) :: rest when at +. 0.05 <= !rto_at ->
      in_flight := rest;
      let ack = Tcp.Receiver.on_data receiver ~retx ~seq () in
      let now = at +. 0.05 in
      let actions = Tcp.Sack_core.on_ack t ~now ack in
      Reference.on_ack r ack ~dupthresh:(Tcp.Sack_core.dupthresh t);
      emit ~now actions
    | _ when !rto_at < infinity ->
      let now = !rto_at in
      rto_at := infinity;
      let actions = Tcp.Sack_core.on_timer t ~now ~key:0 in
      Reference.on_rto r;
      emit ~now actions
    | _ -> n := steps
  done;
  (!ok, t)

let metric t name = List.assoc name (Tcp.Sack_core.metrics t)

let loss_marking_prop =
  (* Drops (originals and retransmissions) force fast retransmits and
     timeouts; hold-backs longer than a few packet times force spurious
     retransmissions, whose DSACKs move Inc-by-1's dupthresh up and
     Inc-by-N's both ways. *)
  QCheck.Test.make ~name:"incremental IsLost matches a full rescan" ~count:60
    QCheck.(
      quad small_nat (int_range 0 8) (int_range 0 40) (int_range 1 30))
    (fun (seed, drop_pct, hold_pct, hold_ms) ->
      let config =
        { Tcp.Config.default with Tcp.Config.initial_cwnd = 4.; max_cwnd = 24. }
      in
      List.for_all
        (fun response ->
          let rng = Random.State.make [| seed |] in
          let fate ~seq:_ ~attempt:_ =
            if Random.State.int rng 100 < drop_pct then None
            else if Random.State.int rng 100 < hold_pct then
              Some (Random.State.float rng (float_of_int hold_ms /. 1000.))
            else Some 0.
          in
          fst (run_path ~config ~response ~fate ~steps:400 ()))
        Tcp.Sack_core.[ plain_sack; inc_by_1; inc_by_n ])

let test_rto_after_partial_recovery () =
  (* 3 and 9 are lost; 9's first retransmission too. Fast recovery
     repairs 3 and the cumulative ACK moves up to 9 — a partial ACK —
     while 9 sits in [retx_out], never to be re-marked by SACKs. The
     timeout must then declare everything unSACKed lost again, and the
     marking that follows the timeout must stay exact. *)
  let fate ~seq ~attempt =
    match (seq, attempt) with
    | (3 | 9), 0 | 9, 1 -> None
    | _ -> Some 0.
  in
  let config = { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. } in
  let ok, t =
    run_path ~config ~response:Tcp.Sack_core.plain_sack ~fate ~steps:400 ()
  in
  Alcotest.(check bool) "agrees with the reference throughout" true ok;
  check_float "one fast retransmit" 1. (metric t "fast_retransmits");
  check_float "one timeout" 1. (metric t "timeouts");
  Alcotest.(check bool) "past the repaired hole" true (Tcp.Sack_core.acked t > 9)

let test_sack_covers_lost_pending () =
  (* 0 and 1 are declared lost together; 0 goes out at once, 1 waits
     for the pipe. Then 1 itself is SACKed — it was only reordered —
     and must never be retransmitted. *)
  let t = make ~cwnd:16. () in
  let r = Reference.create () in
  ignore (Reference.on_sends r (List.init 4 (fun seq -> (seq, false))));
  let dup ~now ~for_seq ~first ~last =
    step t r ~now (ack ~next:0 ~for_seq ~sacks:[ (first, last) ] ())
  in
  ignore (dup ~now:0.1 ~for_seq:2 ~first:2 ~last:2);
  ignore (dup ~now:0.11 ~for_seq:3 ~first:2 ~last:3);
  let a = dup ~now:0.12 ~for_seq:4 ~first:2 ~last:4 in
  Alcotest.(check (list int)) "only the first lost segment" [ 0 ]
    (retransmissions a);
  Alcotest.(check int) "1 pending: pipe = 12 - 3 SACKed - 1 lost" 8
    (Tcp.Sack_core.pipe t);
  let a = dup ~now:0.13 ~for_seq:1 ~first:1 ~last:4 in
  Alcotest.(check (list int)) "nothing sent" [] (sends a |> List.map fst);
  Alcotest.(check int) "1 moved from lost to SACKed" 8 (Tcp.Sack_core.pipe t);
  let a = dup ~now:0.14 ~for_seq:5 ~first:1 ~last:5 in
  Alcotest.(check (list int)) "no retransmission of 1" [] (retransmissions a);
  Alcotest.(check (list int)) "new data instead" [ 12 ] (new_sends a)

let test_ring_growth_keeps_karn_flags () =
  (* 0 is lost and retransmitted, then SACKs of 1..256 clock new data
     out until the flight outgrows the 256-slot ring. The seq that
     forces the growth (256) shares its old slot with the retransmitted
     0, yet it was sent once: the ACK covering it must give an RTT
     sample. *)
  let t = make ~cwnd:8. () in
  let now k = 0.1 +. (0.001 *. float_of_int k) in
  let sent_256 = ref nan in
  let k = ref 1 in
  while !k <= 256 do
    let a =
      Tcp.Sack_core.on_ack t ~now:(now !k)
        (ack ~next:0 ~for_seq:!k ~sacks:[ (1, !k) ] ())
    in
    if !k = 3 then
      Alcotest.(check (list int)) "0 retransmitted" [ 0 ] (retransmissions a);
    if List.mem 256 (new_sends a) then sent_256 := now !k;
    incr k
  done;
  check_float "no RTT sample yet" (-1.) (metric t "srtt");
  (* The repaired 0 arrives: the cumulative ACK passes 256 exactly. *)
  let at = now !k in
  ignore (Tcp.Sack_core.on_ack t ~now:at (ack ~next:257 ~for_seq:0 ()));
  Alcotest.(check int) "acknowledged through 256" 257 (Tcp.Sack_core.acked t);
  check_float "sampled from 256's send" (at -. !sent_256) (metric t "srtt")

(* --- Bounded per-connection state ------------------------------------- *)

let test_plain_sack_state_bounded () =
  (* Every 20th original is lost: one fast retransmit each. Plain SACK
     never reads a retransmission event, so thousands of episodes must
     leave nothing behind. *)
  let fate ~seq ~attempt =
    if attempt = 0 && seq mod 20 = 10 then None else Some 0.
  in
  let ok, t =
    run_path ~response:Tcp.Sack_core.plain_sack ~fate ~steps:110_000 ()
  in
  Alcotest.(check bool) "agrees with the reference" true ok;
  Alcotest.(check bool) "at least 5000 fast retransmits" true
    (metric t "fast_retransmits" >= 5000.);
  let words = Obj.reachable_words (Obj.repr t) in
  if words > 4096 then
    Alcotest.failf "sender holds %d words after %.0f episodes" words
      (metric t "fast_retransmits")

let () =
  Alcotest.run "sack"
    [ ( "scoreboard",
        [ Alcotest.test_case "loss detection" `Quick
            test_sack_loss_detection_and_retransmit;
          Alcotest.test_case "below dupthresh" `Quick
            test_sack_no_retransmit_before_dupthresh;
          Alcotest.test_case "pipe accounting" `Quick test_sack_pipe_accounting;
          Alcotest.test_case "extended limited transmit" `Quick
            test_sack_extended_limited_transmit;
          Alcotest.test_case "recovery exit" `Quick
            test_sack_recovery_exit_restores_growth;
          Alcotest.test_case "rto" `Quick
            test_sack_rto_marks_lost_and_slow_starts;
          Alcotest.test_case "max burst" `Quick test_sack_max_burst_cap;
          Alcotest.test_case "dupack keeps rto" `Quick
            test_sack_dupack_does_not_restart_rto;
          Alcotest.test_case "rto after partial recovery" `Quick
            test_rto_after_partial_recovery;
          Alcotest.test_case "sack covers a lost-pending seq" `Quick
            test_sack_covers_lost_pending;
          Alcotest.test_case "ring growth keeps karn flags" `Quick
            test_ring_growth_keeps_karn_flags;
          Alcotest.test_case "plain sack state bounded" `Quick
            test_plain_sack_state_bounded;
          QCheck_alcotest.to_alcotest ~long:false loss_marking_prop ] );
      ( "dsack-responses",
        [ Alcotest.test_case "detects spurious" `Quick
            test_dsack_detects_spurious;
          Alcotest.test_case "restores window" `Quick test_dsack_restores_window;
          Alcotest.test_case "plain sack ignores" `Quick
            test_dsack_plain_sack_ignores;
          Alcotest.test_case "inc by 1" `Quick test_dsack_inc_by_1;
          Alcotest.test_case "inc by n averages" `Quick
            test_dsack_inc_by_n_averages;
          Alcotest.test_case "ewma" `Quick
            test_dsack_ewma_stays_at_stable_observation;
          Alcotest.test_case "tolerates reordering after adapt" `Quick
            test_higher_dupthresh_tolerates_reordering ] );
      ( "td-fr",
        [ Alcotest.test_case "delays retransmission" `Quick
            test_td_fr_delays_retransmission;
          Alcotest.test_case "fires and retransmits" `Quick
            test_td_fr_fires_and_retransmits;
          Alcotest.test_case "cancelled by reordering" `Quick
            test_td_fr_cancelled_by_reordering;
          Alcotest.test_case "window survives reordering" `Quick
            test_td_fr_window_survives_reordering ] ) ]
