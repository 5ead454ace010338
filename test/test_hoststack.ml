(* Host-stack realism layer (PR9): differential + property suite.

   The layer — finite receive socket buffer, DRS rwnd autotuning, GRO
   coalescing at the sink's ingress — must be invisible when disabled
   (the stored goldens pin that byte-for-byte; here the equivalences
   are proven directly against live traces), must satisfy its
   accounting invariants under arbitrary operation sequences, and must
   reproduce the paper's headline claim under host-stack realism:
   TCP-PR completes without spurious retransmissions where the
   duplicate-ACK variants fast-retransmit spuriously. *)

module Golden = Check.Golden
module Scenario = Experiments.Scenario

(* The traced runs below are the golden miniatures ([Golden.run]):
   [Fig2] races the variant under test against TCP-SACK on the
   dumbbell, [Fig6] runs it alone on the lattice at epsilon = 0
   (maximal persistent reordering), each under [config], the golden
   80-segment transfer, unless a case names another, and with
   [coalesce] optionally arming GRO on the sink's ingress links. *)
let config = Scenario.bounded_config 80

let tcp_pr = snd Experiments.Variants.tcp_pr

(* An enormous buffer an 80-segment transfer can never pressure: with
   an instant reader the advertised window never binds, so the only
   difference from the disabled layer is that acknowledgements carry a
   finite window — which must not change a single event. *)
let huge_buffer_config =
  { config with
    Tcp.Config.rcv_buf_segments = Some 1_000_000;
    rcv_buf_max_segments = 1_000_000 }

let check_identical what a b =
  if not (String.equal a b) then
    Alcotest.failf "%s: traces diverge at %s" what
      (Golden.first_diff ~expected:a ~actual:b)

(* --- differential: the layer off (or inert) is byte-invisible ------- *)

let test_unbounded_equivalence figure variants () =
  List.iter
    (fun (name, sender) ->
      let base, _ = Golden.run ~config figure sender in
      let huge, _ = Golden.run ~config:huge_buffer_config figure sender in
      check_identical
        (Printf.sprintf "%s: disabled vs huge finite buffer" name)
        base huge)
    variants

let test_coalescing_burst1_identity () =
  let base, _ = Golden.run ~config Fig2 tcp_pr in
  let b1, _ = Golden.run ~coalesce:(0.002, 1) ~config Fig2 tcp_pr in
  check_identical "coalescing max_burst=1 vs off" base b1

let test_coalescing_timer0_identity () =
  let base, _ = Golden.run ~config Fig6 tcp_pr in
  let t0, _ = Golden.run ~coalesce:(0., 4) ~config Fig6 tcp_pr in
  check_identical "coalescing timer=0 vs off" base t0

(* --- qcheck: buffer accounting invariants --------------------------- *)

let mss = Tcp.Config.mss

let buffer_accounting_prop =
  QCheck.Test.make ~count:200 ~name:"rcv_buffer accounting invariants"
    QCheck.(pair (int_range 1 32) (list_of_size Gen.(int_range 0 400) (int_bound 4)))
    (fun (capacity, ops) ->
      let buf =
        Tcp.Rcv_buffer.create ~mss ~capacity_segments:capacity
          ~max_segments:(capacity * 4) ~autotune:true
      in
      let now = ref 0. in
      List.iter
        (fun op ->
          (match op with
          | 0 -> ignore (Tcp.Rcv_buffer.admit_in_order buf)
          | 1 -> ignore (Tcp.Rcv_buffer.admit_out_of_order buf)
          | 2 ->
            if Tcp.Rcv_buffer.out_of_order_bytes buf >= mss then
              Tcp.Rcv_buffer.promote buf ~segments:1
          | 3 ->
            if Tcp.Rcv_buffer.unread_segments buf > 0 then
              Tcp.Rcv_buffer.app_read buf ~segments:1
          | _ ->
            now := !now +. 0.01;
            Tcp.Rcv_buffer.on_delivered buf ~now:!now ~bytes:mss);
          let used = Tcp.Rcv_buffer.used_bytes buf in
          let free = Tcp.Rcv_buffer.free_bytes buf in
          let cap = Tcp.Rcv_buffer.capacity_bytes buf in
          if
            Tcp.Rcv_buffer.in_order_bytes buf
            + Tcp.Rcv_buffer.out_of_order_bytes buf
            <> used
          then QCheck.Test.fail_report "in_order + out_of_order <> used";
          if used < 0 || free < 0 then
            QCheck.Test.fail_report "negative accounting";
          if free + used <> cap then
            QCheck.Test.fail_report "free + used <> capacity";
          if cap < capacity * mss || cap > capacity * 4 * mss then
            QCheck.Test.fail_report "capacity left [initial, max]";
          if Tcp.Rcv_buffer.rwnd_segments buf * mss > free then
            QCheck.Test.fail_report "advertised window exceeds free space")
        ops;
      true)

let drs_monotone_prop =
  QCheck.Test.make ~count:200 ~name:"DRS capacity monotone, bounded by cap"
    QCheck.(list_of_size Gen.(int_range 1 200) (pair (float_range 0.001 0.05) (int_range 1 8)))
    (fun deliveries ->
      let buf =
        Tcp.Rcv_buffer.create ~mss ~capacity_segments:8 ~max_segments:64
          ~autotune:true
      in
      let now = ref 0. in
      let last_cap = ref (Tcp.Rcv_buffer.capacity_bytes buf) in
      List.iter
        (fun (dt, segs) ->
          now := !now +. dt;
          Tcp.Rcv_buffer.on_delivered buf ~now:!now ~bytes:(segs * mss);
          let cap = Tcp.Rcv_buffer.capacity_bytes buf in
          if cap < !last_cap then QCheck.Test.fail_report "capacity shrank";
          if cap > 64 * mss then QCheck.Test.fail_report "capacity beyond cap";
          last_cap := cap)
        deliveries;
      true)

let coalescing_identity_prop =
  QCheck.Test.make ~count:8 ~name:"max_burst=1 trace-identical at any timer"
    QCheck.(float_range 0.0002 0.004)
    (fun timer_s ->
      let base, _ = Golden.run ~config Fig2 tcp_pr in
      let b1, _ = Golden.run ~coalesce:(timer_s, 1) ~config Fig2 tcp_pr in
      String.equal base b1)

(* --- zero-window persistence and reopening -------------------------- *)

(* The hoststack golden configuration: a 16-segment buffer (autotuned
   to at most 24) drained at 10 reads/s against a ~125 segment/s path
   forces standing zero windows; the transfer must still complete, via
   the persist re-arm on the sender and the repeated window-reopen
   announcements from the app-drain timer. *)
let test_zero_window_liveness () =
  let config = Scenario.hoststack_config ~app_rate:10. 80 in
  let engine = Sim.Engine.create () in
  let probe = Tcp.Probe.create () in
  let monitors = Check.Monitor.for_variant ~variant:"TCP-PR" ~config in
  Check.Monitor.arm probe monitors;
  let connection =
    Scenario.connect ~probe (Scenario.dumbbell engine) ~flow:0 ~at:0.
      ~sender:tcp_pr ~config
  in
  Sim.Engine.run engine ~until:120.;
  Alcotest.(check bool)
    "transfer completes despite standing zero windows" true
    (Tcp.Connection.finished connection);
  Alcotest.(check bool)
    "zero windows were actually advertised" true
    (Tcp.Connection.receiver_zero_windows connection > 0);
  Alcotest.(check bool)
    "window-reopen announcements were sent" true
    (Tcp.Connection.window_updates_sent connection > 0);
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "monitor %s clean" (Check.Monitor.name m))
        0
        (Check.Monitor.violation_count m))
    monitors

(* --- the paper's claim under host-stack realism --------------------- *)

(* Persistent reordering (lattice, epsilon = 0) with GRO coalescing and
   a finite (instantly-read) receive buffer: TCP-PR's timer-only loss
   detection completes the transfer without a single spurious
   retransmission, while every duplicate-ACK variant fast-retransmits
   spuriously — segments the receiver then counts as duplicates. *)
let realism_config =
  { config with
    Tcp.Config.rcv_buf_segments = Some 32;
    rcv_buf_max_segments = 64;
    rcv_autotune = true }

let metric name c =
  match List.assoc_opt name (Tcp.Connection.sender_metrics c) with
  | Some v -> v
  | None -> Alcotest.failf "sender metric %s missing" name

let test_spurious_retransmit_differential () =
  let coalesce = (0.001, 4) in
  let _, pr = Golden.run ~coalesce ~config:realism_config Fig6 tcp_pr in
  Alcotest.(check bool) "TCP-PR completes" true (Tcp.Connection.finished pr);
  Alcotest.(check int) "TCP-PR: no spurious retransmissions" 0
    (Tcp.Connection.receiver_duplicates pr);
  List.iter
    (fun (name, sender) ->
      let _, c = Golden.run ~coalesce ~config:realism_config Fig6 sender in
      Alcotest.(check bool)
        (Printf.sprintf "%s completes" name)
        true
        (Tcp.Connection.finished c);
      if metric "fast_retransmits" c <= 0. then
        Alcotest.failf "%s: expected spurious fast retransmits under \
                        persistent reordering, got none"
          name)
    [ ("NewReno", (module Tcp.Newreno : Tcp.Sender.S));
      Experiments.Variants.tcp_sack;
      ("TD-FR", (module Tcp.Td_fr : Tcp.Sender.S)) ]

(* --- oracle sweep with the layer forced on -------------------------- *)

(* Every seed's scenario, with coalescing and a finite buffer forced on
   where the draw left them off: the full monitor suite (including
   rwnd-conservation and zero-window-liveness) must stay clean and the
   transfer must complete for both the paper's protagonists. *)
let test_oracle_hoststack_sweep () =
  for seed = 0 to 9 do
    let s = Check.Oracle.generate ~seed () in
    let s =
      { s with
        Check.Oracle.rcv_buf =
          (match s.Check.Oracle.rcv_buf with Some _ as b -> b | None -> Some 32);
        coalesce =
          (match s.Check.Oracle.coalesce with
          | Some _ as c -> c
          | None -> Some (0.001, 4)) }
    in
    List.iter
      (fun variant ->
        let report = Check.Oracle.run s ~variant in
        if not (Check.Oracle.passed report) then
          Alcotest.failf "%a" Check.Oracle.pp_report report)
      [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]
  done

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "hoststack"
    [ ( "differential",
        [ Alcotest.test_case "unbounded equivalence (dumbbell)" `Quick
            (test_unbounded_equivalence Fig2
               [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]);
          Alcotest.test_case "unbounded equivalence (lattice)" `Quick
            (test_unbounded_equivalence Fig6
               [ Experiments.Variants.tcp_pr;
                 ("TD-FR", (module Tcp.Td_fr : Tcp.Sender.S)) ]);
          Alcotest.test_case "coalescing burst=1 identity" `Quick
            test_coalescing_burst1_identity;
          Alcotest.test_case "coalescing timer=0 identity" `Quick
            test_coalescing_timer0_identity ] );
      ( "buffer-properties",
        [ qcheck buffer_accounting_prop; qcheck drs_monotone_prop;
          qcheck coalescing_identity_prop ] );
      ( "pressure",
        [ Alcotest.test_case "zero-window liveness" `Quick
            test_zero_window_liveness ] );
      ( "paper-claim",
        [ Alcotest.test_case "spurious retransmit differential" `Quick
            test_spurious_retransmit_differential ] );
      ( "oracle-sweep",
        [ Alcotest.test_case "monitors clean, layer forced on" `Slow
            test_oracle_hoststack_sweep ] ) ]
