(* Tests for the TCP framework: Interval_buf, Rto, Receiver, the
   NewReno sender driven as a pure state machine, and connection
   reuse. *)


(* The handlers now write into an {!Tcp.Action_buffer.t} instead of
   returning a list; shadow the cores' with list-returning adapters so
   the assertions below keep their original shape. *)
module Tcp = struct
  include Tcp

  module Newreno_core = struct
    include Newreno_core

    let start t ~now = Action_buffer.collect (Newreno_core.start t ~now)

    let on_ack t ~now ack =
      Action_buffer.collect (Newreno_core.on_ack t ~now ack)

    let on_timer t ~now ~key =
      Action_buffer.collect (Newreno_core.on_timer t ~now ~key)
  end

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

let new_sends actions =
  List.filter_map (fun (seq, retx) -> if retx then None else Some seq)
    (sends actions)

let retransmissions actions =
  List.filter_map (fun (seq, retx) -> if retx then Some seq else None)
    (sends actions)

let timer_keys actions =
  List.filter_map
    (function Tcp.Action.Set_timer { key; _ } -> Some key | _ -> None)
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

(* ------------------------------------------------------------------ *)
(* Interval_buf                                                        *)
(* ------------------------------------------------------------------ *)

module Ib = Tcp.Interval_buf

let intervals_of points =
  let t = Ib.create () in
  List.iter (Ib.add t) points;
  t

let range_of ~first ~last =
  let t = Ib.create () in
  Ib.add_range t ~first ~last;
  t

let test_intervals_merge () =
  let t = intervals_of [ 1; 3; 2 ] in
  Alcotest.(check (list (pair int int))) "coalesced" [ (1, 3) ] (Ib.to_list t)

let test_intervals_disjoint () =
  let t = intervals_of [ 1; 5; 3 ] in
  Alcotest.(check (list (pair int int)))
    "three singletons"
    [ (1, 1); (3, 3); (5, 5) ]
    (Ib.to_list t)

let test_intervals_add_range_overlap () =
  let t = range_of ~first:1 ~last:3 in
  Ib.add_range t ~first:6 ~last:8;
  Ib.add_range t ~first:2 ~last:7;
  Alcotest.(check (list (pair int int))) "merged all" [ (1, 8) ] (Ib.to_list t);
  Alcotest.(check int) "cardinal" 8 (Ib.cardinal t)

let test_intervals_remove_below () =
  let t = range_of ~first:1 ~last:10 in
  Ib.remove_below t 5;
  Alcotest.(check (list (pair int int))) "truncated" [ (5, 10) ] (Ib.to_list t);
  Ib.add t 20;
  Ib.remove_below t 15;
  Alcotest.(check (list (pair int int))) "dropped whole" [ (20, 20) ]
    (Ib.to_list t);
  Ib.clear t;
  Alcotest.(check bool) "cleared" true (Ib.is_empty t && Ib.cardinal t = 0)

let test_intervals_remove_range () =
  let t = range_of ~first:1 ~last:10 in
  Ib.remove_range t ~first:4 ~last:6;
  Alcotest.(check (list (pair int int)))
    "split"
    [ (1, 3); (7, 10) ]
    (Ib.to_list t);
  Alcotest.(check int) "cardinal" 7 (Ib.cardinal t)

let test_intervals_counts () =
  let t = intervals_of [ 1; 2; 3; 7; 9; 10 ] in
  Alcotest.(check int) "cardinal" 6 (Ib.cardinal t);
  Alcotest.(check int) "rank 0" 1 (Ib.nth_smallest t 0);
  Alcotest.(check int) "rank 3" 7 (Ib.nth_smallest t 3);
  Alcotest.(check int) "rank 5" 10 (Ib.nth_smallest t 5);
  Alcotest.check_raises "rank 6" Not_found (fun () ->
      ignore (Ib.nth_smallest t 6));
  Alcotest.(check int) "min" 1 (Ib.min_elt t);
  Alcotest.(check int) "max" 10 (Ib.max_elt t);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Ib.min_elt (Ib.create ())))

let test_intervals_containing () =
  let t = intervals_of [ 1; 2; 3; 7 ] in
  let idx = Ib.find t 2 in
  Alcotest.(check (pair int int))
    "inside" (1, 3)
    (Ib.first t idx, Ib.last t idx);
  Alcotest.(check int) "outside" (-1) (Ib.find t 5)

module Int_set = Set.Make (Int)

let agrees t model ~upto =
  Ib.invariant t
  && Ib.cardinal t = Int_set.cardinal model
  && List.for_all
       (fun x -> Ib.mem t x = Int_set.mem x model)
       (List.init upto Fun.id)

let intervals_model_prop =
  (* Against a naive set model: membership, cardinality, invariant. *)
  QCheck.Test.make ~name:"intervals agree with set model" ~count:500
    QCheck.(list (int_range 0 60))
    (fun points ->
      agrees (intervals_of points) (Int_set.of_list points) ~upto:62)

let intervals_remove_prop =
  QCheck.Test.make ~name:"remove_range agrees with set model" ~count:500
    QCheck.(triple (list (int_range 0 40)) (int_range 0 40) (int_range 0 40))
    (fun (points, a, b) ->
      let first = min a b and last = max a b in
      let t = intervals_of points in
      Ib.remove_range t ~first ~last;
      let model =
        Int_set.filter (fun x -> x < first || x > last) (Int_set.of_list points)
      in
      agrees t model ~upto:42)

let intervals_add_remove_roundtrip_prop =
  (* Subtracting a range just added restores the set outside the range
     exactly. *)
  QCheck.Test.make ~name:"add_range/remove_range round-trips" ~count:500
    QCheck.(triple (list (int_range 0 40)) (int_range 0 40) (int_range 0 40))
    (fun (points, a, b) ->
      let first = min a b and last = max a b in
      let u = intervals_of points in
      Ib.add_range u ~first ~last;
      Ib.remove_range u ~first ~last;
      let model =
        Int_set.filter (fun x -> x < first || x > last) (Int_set.of_list points)
      in
      agrees u model ~upto:42)

let intervals_merge_adjacent_prop =
  (* Two abutting ranges coalesce into the single canonical interval. *)
  QCheck.Test.make ~name:"adjacent ranges coalesce" ~count:500
    QCheck.(triple (int_range 0 30) (int_range 0 10) (int_range 0 10))
    (fun (a, d1, d2) ->
      let b = a + d1 in
      let c = b + 1 + d2 in
      let split = range_of ~first:a ~last:b in
      Ib.add_range split ~first:(b + 1) ~last:c;
      Ib.invariant split && Ib.to_list split = [ (a, c) ])

let intervals_nth_smallest_prop =
  QCheck.Test.make ~name:"nth_smallest agrees with set model" ~count:500
    QCheck.(pair (list (int_range 0 60)) (int_range 0 60))
    (fun (points, k) ->
      let t = intervals_of points in
      let model = Int_set.of_list points in
      match List.nth_opt (Int_set.elements model) k with
      | Some x -> Ib.nth_smallest t k = x
      | None -> (
        match Ib.nth_smallest t k with
        | _ -> false
        | exception Not_found -> true))

(* One buffer driven through a long mixed sequence, as the scoreboards
   are: growth past the initial capacity, splits, merges and clears
   must keep the cached count and the ordering exact at every step. *)
let intervals_op_sequence_prop =
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun a d -> `Add (a, a + d)) (int_range 0 120) (int_range 0 6));
          ( 3,
            map2
              (fun a d -> `Remove (a, a + d))
              (int_range 0 120) (int_range 0 12) );
          (1, map (fun x -> `Below x) (int_range 0 60));
          (1, return `Clear) ])
  in
  QCheck.Test.make ~name:"mixed operations agree with set model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let t = Ib.create () in
      let range a b = Int_set.of_list (List.init (b - a + 1) (fun i -> a + i)) in
      let step model = function
        | `Add (a, b) ->
          Ib.add_range t ~first:a ~last:b;
          Int_set.union model (range a b)
        | `Remove (a, b) ->
          Ib.remove_range t ~first:a ~last:b;
          Int_set.diff model (range a b)
        | `Below x ->
          Ib.remove_below t x;
          Int_set.filter (fun y -> y >= x) model
        | `Clear ->
          Ib.clear t;
          Int_set.empty
      in
      let ok = ref true in
      ignore
        (List.fold_left
           (fun model o ->
             let model = step model o in
             ok :=
               !ok
               && agrees t model ~upto:140
               && (Int_set.is_empty model
                  || Ib.min_elt t = Int_set.min_elt model
                     && Ib.max_elt t = Int_set.max_elt model);
             model)
           Int_set.empty ops);
      !ok)

(* ------------------------------------------------------------------ *)
(* Rto                                                                 *)
(* ------------------------------------------------------------------ *)

let rto_config = { Tcp.Config.default with Tcp.Config.min_rto = 0.2 }

let test_rto_initial () =
  let rto = Tcp.Rto.create Tcp.Config.default in
  check_float "initial 3 s" 3. (Tcp.Rto.current rto);
  Alcotest.(check (option (float 0.))) "no srtt" None (Tcp.Rto.srtt rto)

let test_rto_first_sample () =
  let rto = Tcp.Rto.create rto_config in
  Tcp.Rto.sample rto 0.1;
  Alcotest.(check (option (float 1e-9))) "srtt = rtt" (Some 0.1)
    (Tcp.Rto.srtt rto);
  Alcotest.(check (option (float 1e-9)))
    "rttvar = rtt/2" (Some 0.05) (Tcp.Rto.rttvar rto);
  (* srtt + 4 * rttvar = 0.3, above the 0.2 floor. *)
  check_float "rto" 0.3 (Tcp.Rto.current rto)

let test_rto_converges () =
  let rto = Tcp.Rto.create rto_config in
  for _ = 1 to 200 do
    Tcp.Rto.sample rto 0.1
  done;
  (match Tcp.Rto.srtt rto with
  | Some srtt -> check_float "srtt converges" 0.1 srtt
  | None -> Alcotest.fail "expected srtt");
  (* With constant samples rttvar decays to zero; the floor holds. *)
  check_float "rto at floor" 0.2 (Tcp.Rto.current rto)

let test_rto_backoff () =
  let rto = Tcp.Rto.create rto_config in
  Tcp.Rto.sample rto 0.1;
  let base = Tcp.Rto.current rto in
  Tcp.Rto.backoff rto;
  check_float "doubled" (2. *. base) (Tcp.Rto.current rto);
  Tcp.Rto.backoff rto;
  check_float "doubled again" (4. *. base) (Tcp.Rto.current rto);
  Tcp.Rto.reset_backoff rto;
  check_float "reset" base (Tcp.Rto.current rto)

let test_rto_max_clamp () =
  let rto = Tcp.Rto.create { rto_config with Tcp.Config.max_rto = 10. } in
  Tcp.Rto.sample rto 1.;
  for _ = 1 to 20 do
    Tcp.Rto.backoff rto
  done;
  check_float "clamped" 10. (Tcp.Rto.current rto)

let test_rto_min_clamp () =
  let rto = Tcp.Rto.create rto_config in
  Tcp.Rto.sample rto 0.001;
  check_float "floored at min_rto" 0.2 (Tcp.Rto.current rto)

let test_rto_backoff_without_sample () =
  (* Back-off applies to the initial RTO too, clamped at max_rto, and
     reset restores the un-backed-off value. *)
  let rto = Tcp.Rto.create { rto_config with Tcp.Config.max_rto = 10. } in
  check_float "initial" 3. (Tcp.Rto.current rto);
  for _ = 1 to 10 do
    Tcp.Rto.backoff rto
  done;
  check_float "clamped at max" 10. (Tcp.Rto.current rto);
  Tcp.Rto.reset_backoff rto;
  check_float "back to initial" 3. (Tcp.Rto.current rto)

let test_rto_backoff_survives_sample () =
  (* A new sample refreshes the base estimate but must not clear the
     back-off multiplier: only reset_backoff (new data acked) does. *)
  let rto = Tcp.Rto.create rto_config in
  Tcp.Rto.sample rto 0.1;
  Tcp.Rto.backoff rto;
  check_float "doubled" 0.6 (Tcp.Rto.current rto);
  Tcp.Rto.sample rto 0.1;
  (* srtt = 0.1, rttvar decays to 0.0375: base 0.25, still doubled. *)
  check_float "sample keeps multiplier" 0.5 (Tcp.Rto.current rto);
  Tcp.Rto.reset_backoff rto;
  check_float "reset restores base" 0.25 (Tcp.Rto.current rto)

let test_rto_backoff_at_floor () =
  (* Regression: with the min_rto floor active (tiny RTT), each timeout
     must still double the armed RTO. The old multiplier-only back-off
     inflated silently under the floor and then overshot in one jump. *)
  let rto = Tcp.Rto.create { rto_config with Tcp.Config.max_rto = 10. } in
  Tcp.Rto.sample rto 0.001;
  check_float "at floor" 0.2 (Tcp.Rto.current rto);
  Tcp.Rto.backoff rto;
  check_float "doubles off the floor" 0.4 (Tcp.Rto.current rto);
  Tcp.Rto.backoff rto;
  check_float "keeps doubling" 0.8 (Tcp.Rto.current rto);
  Tcp.Rto.reset_backoff rto;
  check_float "reset returns to floor" 0.2 (Tcp.Rto.current rto)

let rto_props =
  [ QCheck.Test.make ~name:"backoff doubles current, saturating at max_rto"
      ~count:500
      QCheck.(
        triple (float_bound_exclusive 2.) (int_range 0 12)
          (float_bound_exclusive 2.))
      (fun (first_rtt, backoffs, later_rtt) ->
        let rto = Tcp.Rto.create { rto_config with Tcp.Config.max_rto = 10. } in
        Tcp.Rto.sample rto first_rtt;
        let ok = ref true in
        for _ = 1 to backoffs do
          let before = Tcp.Rto.current rto in
          Tcp.Rto.backoff rto;
          let expected = Float.min (2. *. before) 10. in
          if abs_float (Tcp.Rto.current rto -. expected) > 1e-9 then
            ok := false
        done;
        (* A fresh sample must leave the armed RTO within the clamps. *)
        Tcp.Rto.sample rto later_rtt;
        let v = Tcp.Rto.current rto in
        !ok && v >= 0.2 -. 1e-9 && v <= 10. +. 1e-9) ]

let test_rto_sample_on_fresh_ack () =
  (* Sender-level: a clean first ACK yields an RTT sample. *)
  let config =
    { Tcp.Config.default with Tcp.Config.total_segments = Some 8 }
  in
  let t = Tcp.Sack_core.create config in
  ignore (Tcp.Sack_core.start t ~now:0.);
  ignore (Tcp.Sack_core.on_ack t ~now:0.37 (ack ~next:1 ~for_seq:0 ()));
  check_float "sampled" 0.37 (List.assoc "srtt" (Tcp.Sack_core.metrics t))

let test_rto_karn_invalidation () =
  (* Sender-level Karn: once a segment has been retransmitted, the ACK
     covering it must not produce an RTT sample. *)
  let config =
    { Tcp.Config.default with
      Tcp.Config.total_segments = Some 8;
      initial_rto = 1. }
  in
  let t = Tcp.Sack_core.create config in
  ignore (Tcp.Sack_core.start t ~now:0.);
  (* RTO fires: seq 0 is retransmitted. *)
  ignore (Tcp.Sack_core.on_timer t ~now:1. ~key:0);
  ignore (Tcp.Sack_core.on_ack t ~now:1.4 (ack ~next:1 ~for_seq:0 ()));
  check_float "no sample from retransmitted segment" (-1.)
    (List.assoc "srtt" (Tcp.Sack_core.metrics t))

(* ------------------------------------------------------------------ *)
(* Receiver                                                            *)
(* ------------------------------------------------------------------ *)

let test_receiver_in_order () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  let a0 = Tcp.Receiver.on_data r ~seq:0 () in
  Alcotest.(check int) "advances" 1 a0.Tcp.Types.next;
  Alcotest.(check int) "echo" 0 a0.Tcp.Types.for_seq;
  Alcotest.(check bool) "no sacks" true (a0.Tcp.Types.sacks = []);
  Alcotest.(check bool) "no dsack" true (a0.Tcp.Types.dsack = None);
  let a1 = Tcp.Receiver.on_data r ~seq:1 () in
  Alcotest.(check int) "advances" 2 a1.Tcp.Types.next

let test_receiver_gap_sack () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  let a = Tcp.Receiver.on_data r ~seq:2 () in
  Alcotest.(check int) "cumulative frozen" 1 a.Tcp.Types.next;
  (match a.Tcp.Types.sacks with
  | [ { Tcp.Types.first = 2; last = 2 } ] -> ()
  | _ -> Alcotest.fail "expected single sack block [2,2]");
  Alcotest.(check int) "buffered" 1 (Tcp.Receiver.buffered r)

let test_receiver_sack_recency_order () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:2 ());
  ignore (Tcp.Receiver.on_data r ~seq:5 ());
  let a = Tcp.Receiver.on_data r ~seq:8 () in
  (match a.Tcp.Types.sacks with
  | [ b1; b2; b3 ] ->
    Alcotest.(check int) "most recent first" 8 b1.Tcp.Types.first;
    Alcotest.(check int) "then previous" 5 b2.Tcp.Types.first;
    Alcotest.(check int) "then oldest" 2 b3.Tcp.Types.first
  | _ -> Alcotest.fail "expected three blocks");
  (* A fourth distinct block pushes the oldest out (max 3 reported). *)
  ignore (Tcp.Receiver.on_data r ~seq:11 ());
  let a = Tcp.Receiver.on_data r ~seq:14 () in
  Alcotest.(check int) "still three" 3 (List.length a.Tcp.Types.sacks)

let test_receiver_blocks_merge () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:2 ());
  ignore (Tcp.Receiver.on_data r ~seq:4 ());
  let a = Tcp.Receiver.on_data r ~seq:3 () in
  (match a.Tcp.Types.sacks with
  | first :: _ ->
    Alcotest.(check (pair int int))
      "merged block" (2, 4)
      (first.Tcp.Types.first, first.Tcp.Types.last)
  | [] -> Alcotest.fail "expected a block");
  Alcotest.(check int) "one merged block only" 1 (List.length a.Tcp.Types.sacks)

let test_receiver_hole_fill_drains () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:2 ());
  ignore (Tcp.Receiver.on_data r ~seq:3 ());
  let a = Tcp.Receiver.on_data r ~seq:1 () in
  Alcotest.(check int) "jumps over buffered run" 4 a.Tcp.Types.next;
  Alcotest.(check bool) "no stale sacks" true (a.Tcp.Types.sacks = []);
  Alcotest.(check int) "buffer drained" 0 (Tcp.Receiver.buffered r)

let test_receiver_dsack_below_cumulative () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:1 ());
  let a = Tcp.Receiver.on_data r ~seq:0 () in
  (match a.Tcp.Types.dsack with
  | Some { Tcp.Types.first = 0; last = 0 } -> ()
  | _ -> Alcotest.fail "expected dsack [0,0]");
  Alcotest.(check int) "cumulative unchanged" 2 a.Tcp.Types.next;
  Alcotest.(check int) "duplicate counted" 1 (Tcp.Receiver.duplicates r)

let test_receiver_dsack_in_buffer () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:3 ());
  let a = Tcp.Receiver.on_data r ~seq:3 () in
  match a.Tcp.Types.dsack with
  | Some { Tcp.Types.first = 3; last = 3 } -> ()
  | _ -> Alcotest.fail "expected dsack [3,3]"

(* ---- Delayed ACKs (RFC 1122): only a lone in-order segment defers. *)

let delack_config = { Tcp.Config.default with Tcp.Config.delayed_ack = true }

let deferred = function
  | Tcp.Receiver.Defer _ -> true
  | Tcp.Receiver.Ack_now _ | Tcp.Receiver.Drop _ -> false

let test_receiver_delack_alternates () =
  let r = Tcp.Receiver.create delack_config in
  Alcotest.(check bool) "first lone segment defers" true
    (deferred (Tcp.Receiver.receive r ~seq:0 ()));
  Alcotest.(check bool) "second segment acks now" false
    (deferred (Tcp.Receiver.receive r ~seq:1 ()));
  Alcotest.(check bool) "then defers again" true
    (deferred (Tcp.Receiver.receive r ~seq:2 ()))

let test_receiver_delack_gap_acks_now () =
  let r = Tcp.Receiver.create delack_config in
  ignore (Tcp.Receiver.receive r ~seq:0 ());
  Alcotest.(check bool) "out-of-order acks now" false
    (deferred (Tcp.Receiver.receive r ~seq:2 ()));
  (* The hole fill drains the buffer — still an immediate ACK. *)
  Alcotest.(check bool) "hole fill acks now" false
    (deferred (Tcp.Receiver.receive r ~seq:1 ()));
  Alcotest.(check int) "drained" 0 (Tcp.Receiver.buffered r)

let test_receiver_delack_duplicate_acks_now () =
  let r = Tcp.Receiver.create delack_config in
  ignore (Tcp.Receiver.receive r ~seq:0 ());
  match Tcp.Receiver.receive r ~seq:0 () with
  | Tcp.Receiver.Defer _ | Tcp.Receiver.Drop _ ->
    Alcotest.fail "duplicate must ack now"
  | Tcp.Receiver.Ack_now ack ->
    (match ack.Tcp.Types.dsack with
    | Some { Tcp.Types.first = 0; last = 0 } -> ()
    | _ -> Alcotest.fail "expected dsack [0,0]")

let test_receiver_delack_off_never_defers () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  Alcotest.(check bool) "disabled: ack now" false
    (deferred (Tcp.Receiver.receive r ~seq:0 ()))

let test_receiver_reorder_depth () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:3 ());
  ignore (Tcp.Receiver.on_data r ~seq:5 ());
  ignore (Tcp.Receiver.on_data r ~seq:1 ());
  let h = Tcp.Receiver.reorder_depth r in
  (* Only the two out-of-order arrivals record a depth (seq - rcv_next
     at arrival time): 3 - 1 = 2 and 5 - 1 = 4. *)
  Alcotest.(check int) "two samples" 2 (Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "min depth" 2 (Obs.Metrics.Histogram.min_value h);
  Alcotest.(check int) "max depth" 4 (Obs.Metrics.Histogram.max_value h);
  Alcotest.(check int) "sum" 6 (Obs.Metrics.Histogram.sum h)

(* RFC 4737 classification at the sink (regression for the streaming
   analytics): a retransmitted hole filler is late for the offset
   density but NOT a fresh reordering event, a late original is a
   reordered singleton, and a repeated sequence number is evaluated
   once (duplicate). Arrival order: 0, 2, 1, 3, 5, 4(retx), 4(dup). *)
let test_receiver_reorder_classification () =
  let r = Tcp.Receiver.create Tcp.Config.default in
  ignore (Tcp.Receiver.on_data r ~seq:0 ());
  ignore (Tcp.Receiver.on_data r ~seq:2 ());
  ignore (Tcp.Receiver.on_data r ~seq:1 ());
  ignore (Tcp.Receiver.on_data r ~seq:3 ());
  ignore (Tcp.Receiver.on_data r ~seq:5 ());
  ignore (Tcp.Receiver.on_data r ~seq:4 ~retx:true ());
  ignore (Tcp.Receiver.on_data r ~seq:4 ());
  let ro = Tcp.Receiver.reorder r in
  Alcotest.(check int) "arrivals exclude the duplicate" 6
    (Obs.Reorder.arrivals ro);
  Alcotest.(check int) "one reordered singleton (seq 1)" 1
    (Obs.Reorder.reordered ro);
  Alcotest.(check int) "hole-filling retransmit is late_retx, not reordered"
    1 (Obs.Reorder.late_retx ro);
  Alcotest.(check int) "duplicate counted once" 1 (Obs.Reorder.duplicates ro);
  Alcotest.(check int) "next_exp" 6 (Obs.Reorder.next_exp ro);
  (* Both late arrivals feed the offset density: 3 - 1 = 2 and
     6 - 4 = 2. *)
  let late = Obs.Reorder.late_offset ro in
  Alcotest.(check int) "late offsets" 2 (Obs.Metrics.Histogram.count late);
  Alcotest.(check int) "offset sum" 4 (Obs.Metrics.Histogram.sum late);
  (* Only the reordered singleton has an extent (distance 1 back to
     seq 2) and an n-reordering entry (1 immediately preceding larger
     arrival). *)
  let extent = Obs.Reorder.extent ro in
  Alcotest.(check int) "one extent" 1 (Obs.Metrics.Histogram.count extent);
  Alcotest.(check int) "extent value" 1 (Obs.Metrics.Histogram.max_value extent);
  Alcotest.(check int) "one n-reordering" 1
    (Obs.Metrics.Histogram.count (Obs.Reorder.n_reordering ro));
  Alcotest.(check int) "nothing capped" 0 (Obs.Reorder.extent_capped ro);
  Alcotest.(check (float 1e-9)) "density excludes the retransmit"
    (1. /. 6.) (Obs.Reorder.density ro);
  Alcotest.(check (float 1e-9)) "late fraction includes it" (2. /. 6.)
    (Obs.Reorder.late_fraction ro)

(* Two nodes joined by a 10 Mb/s, 10 ms duplex link. [lossy] adds 5%
   Bernoulli loss and 8 ms of jitter (reordering) to the data direction,
   from a fixed seed, so two calls build identical networks. *)
let two_node_network ?(lossy = false) () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let src = Net.Network.add_node network in
  let dst = Net.Network.add_node network in
  let rng = Sim.Rng.create 5 in
  let loss, jitter =
    if lossy then
      ( Some (Net.Loss_model.bernoulli (Sim.Rng.split rng "loss") ~p:0.05),
        Some (Sim.Rng.split rng "jitter", 0.008) )
    else (None, None)
  in
  ignore
    (Net.Network.add_link network ~src ~dst ~bandwidth_bps:10e6 ~delay_s:0.01
       ~capacity:100 ?loss ?jitter ());
  ignore
    (Net.Network.add_link network ~src:dst ~dst:src ~bandwidth_bps:10e6
       ~delay_s:0.01 ~capacity:100 ());
  (engine, network, src, dst)

let sack_sender = snd Experiments.Variants.tcp_sack

let connect ?probe network ~src ~dst ~flow ~sender ~config =
  Tcp.Connection.create ?probe network ~flow ~src ~dst ~sender ~config
    ~route_data:(fun () -> [| Net.Node.id dst |])
    ~route_ack:(fun () -> [| Net.Node.id src |])
    ()

(* Connection-level: a deferred ACK with no follow-up segment is flushed
   by the delayed-ACK timer, and the connection counts the timeout. *)
let test_connection_delack_timer_fires () =
  let engine, network, src, dst = two_node_network () in
  let config =
    { delack_config with
      Tcp.Config.total_segments = Some 1;
      initial_cwnd = 1. }
  in
  let connection = connect network ~src ~dst ~flow:0 ~sender:sack_sender ~config in
  Tcp.Connection.start connection ~at:0.;
  Sim.Engine.run engine ~until:5.;
  Alcotest.(check bool) "transfer completes" true
    (Tcp.Connection.finished connection);
  Alcotest.(check bool) "delack timeout counted" true
    (Tcp.Connection.delack_timeouts connection >= 1)

(* ------------------------------------------------------------------ *)
(* Connection reuse                                                    *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* [reuse] refuses a connection whose transfer has not finished, and
   one whose transfer finished with a timer cell still armed: here the
   paced application reader's, which outlives completion while the
   socket holds unread data. Once the reader has drained it, the same
   connection is accepted and runs a second transfer. *)
let test_reuse_refuses_pending () =
  let engine, network, src, dst = two_node_network () in
  let config =
    { Tcp.Config.default with
      Tcp.Config.total_segments = Some 20;
      rcv_buf_segments = Some 64;
      rcv_app_rate = Some 40. }
  in
  let c = connect network ~src ~dst ~flow:0 ~sender:sack_sender ~config in
  let reuse () = Tcp.Connection.reuse c ~flow:1 ~config in
  Alcotest.(check bool) "unstarted refused" true (raises_invalid reuse);
  Tcp.Connection.start c ~at:0.;
  Sim.Engine.run engine ~until:0.05;
  Alcotest.(check bool) "unfinished" false (Tcp.Connection.finished c);
  Alcotest.(check bool) "unfinished refused" true (raises_invalid reuse);
  let rec run_to_finish () =
    if not (Tcp.Connection.finished c) then begin
      Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 0.001);
      run_to_finish ()
    end
  in
  run_to_finish ();
  Alcotest.(check bool) "finished with the reader still draining" false
    (Tcp.Connection.reusable c);
  Alcotest.(check bool) "armed drain timer refused" true (raises_invalid reuse);
  Sim.Engine.run engine ~until:5.;
  Alcotest.(check bool) "drained: reusable" true (Tcp.Connection.reusable c);
  reuse ();
  Alcotest.(check bool) "reused: not finished" false
    (Tcp.Connection.finished c);
  Tcp.Connection.start c ~at:5.;
  Sim.Engine.run engine ~until:10.;
  Alcotest.(check bool) "second transfer finished" true
    (Tcp.Connection.finished c);
  Alcotest.(check int) "counters restart" 20
    (Tcp.Connection.received_segments c)

(* A lossy, reordered transfer, then a second one under flow 1: on one
   engine by [reuse] of the first connection, on an identical engine by
   a fresh [create]. The probe traces of the two runs must be equal,
   line for line, for every variant. *)
let test_reuse_equals_fresh () =
  List.iter
    (fun (name, sender) ->
      let run ~reuse =
        let engine, network, src, dst = two_node_network ~lossy:true () in
        let probe = Tcp.Probe.create () in
        let lines = ref [] in
        Sim.Trace.on probe (fun ev -> lines := Tcp.Probe.to_line ev :: !lines);
        let config total =
          { Tcp.Config.default with
            Tcp.Config.total_segments = Some total;
            delayed_ack = true;
            min_rto = 0.2;
            initial_rto = 1. }
        in
        let c =
          connect ~probe network ~src ~dst ~flow:0 ~sender
            ~config:(config 80)
        in
        Tcp.Connection.start c ~at:0.;
        Sim.Engine.run engine ~until:60.;
        let first = Tcp.Connection.finished c in
        let c =
          if reuse then begin
            Tcp.Connection.reuse c ~flow:1 ~config:(config 50);
            c
          end
          else begin
            Net.Node.detach src ~flow:0;
            Net.Node.detach dst ~flow:0;
            connect ~probe network ~src ~dst ~flow:1 ~sender
              ~config:(config 50)
          end
        in
        Tcp.Connection.start c ~at:60.;
        Sim.Engine.run engine ~until:120.;
        (first, Tcp.Connection.finished c, List.rev !lines)
      in
      let first, second, reused = run ~reuse:true in
      Alcotest.(check bool) (name ^ ": first transfer finished") true first;
      Alcotest.(check bool) (name ^ ": second transfer finished") true second;
      let _, _, fresh = run ~reuse:false in
      Alcotest.(check (list string)) (name ^ ": reused trace = fresh trace")
        fresh reused)
    Experiments.Variants.all

(* Feeding any arrival order of a permutation of 0..n-1 ends with
   rcv_next = n and an empty out-of-order buffer. *)
let receiver_permutation_prop =
  QCheck.Test.make ~name:"any arrival order drains completely" ~count:300
    QCheck.(int_range 1 40)
    (fun n ->
      let rng = Sim.Rng.create n in
      let order = Array.init n Fun.id in
      Sim.Rng.shuffle rng order;
      let r = Tcp.Receiver.create Tcp.Config.default in
      Array.iter (fun seq -> ignore (Tcp.Receiver.on_data r ~seq ())) order;
      Tcp.Receiver.rcv_next r = n && Tcp.Receiver.buffered r = 0)

(* ------------------------------------------------------------------ *)
(* NewReno sender                                                      *)
(* ------------------------------------------------------------------ *)

let newreno ?(total = None) ?(cwnd = 1.) () =
  let config =
    { Tcp.Config.default with
      Tcp.Config.total_segments = total;
      initial_cwnd = cwnd }
  in
  Tcp.Newreno_core.create ~style:Newreno config

let test_newreno_start () =
  let t = newreno ~cwnd:2. () in
  let actions = Tcp.Newreno_core.start t ~now:0. in
  Alcotest.(check (list int)) "initial window" [ 0; 1 ] (new_sends actions);
  Alcotest.(check (list int)) "rto armed" [ 0 ] (timer_keys actions)

let test_newreno_slow_start_growth () =
  let t = newreno () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (ack ~next:1 ~for_seq:0 ()));
  check_float "cwnd 2 after 1 ack" 2. (Tcp.Newreno_core.cwnd t);
  ignore (Tcp.Newreno_core.on_ack t ~now:0.2 (ack ~next:2 ~for_seq:1 ()));
  check_float "cwnd 3" 3. (Tcp.Newreno_core.cwnd t);
  Alcotest.(check int) "acked" 2 (Tcp.Newreno_core.acked t)

let test_newreno_fast_retransmit_at_dupthresh () =
  let t = newreno ~cwnd:8. () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (ack ~next:1 ~for_seq:0 ()));
  (* Three duplicate ACKs for next = 1 (packet 1 lost). *)
  let dup for_seq = ack ~next:1 ~for_seq () in
  let a1 = Tcp.Newreno_core.on_ack t ~now:0.11 (dup 2) in
  Alcotest.(check (list int)) "no retx on 1st dup" [] (retransmissions a1);
  let a2 = Tcp.Newreno_core.on_ack t ~now:0.12 (dup 3) in
  Alcotest.(check (list int)) "no retx on 2nd dup" [] (retransmissions a2);
  let a3 = Tcp.Newreno_core.on_ack t ~now:0.13 (dup 4) in
  Alcotest.(check (list int)) "retransmits hole" [ 1 ] (retransmissions a3)

let test_newreno_limited_transmit () =
  let t = newreno ~cwnd:4. () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  (* First two dupacks each allow one new segment beyond cwnd. *)
  let a1 = Tcp.Newreno_core.on_ack t ~now:0.1 (ack ~next:0 ~for_seq:1 ()) in
  Alcotest.(check (list int)) "one new on 1st dup" [ 4 ] (new_sends a1);
  let a2 = Tcp.Newreno_core.on_ack t ~now:0.11 (ack ~next:0 ~for_seq:2 ()) in
  Alcotest.(check (list int)) "one new on 2nd dup" [ 5 ] (new_sends a2)

let test_newreno_partial_ack_retransmits () =
  let t = newreno ~cwnd:8. () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  (* Lose packets 0 and 3: dupacks for next = 0. *)
  let dup for_seq = ack ~next:0 ~for_seq () in
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (dup 1));
  ignore (Tcp.Newreno_core.on_ack t ~now:0.11 (dup 2));
  let fr = Tcp.Newreno_core.on_ack t ~now:0.12 (dup 4) in
  Alcotest.(check (list int)) "fast retransmit 0" [ 0 ] (retransmissions fr);
  (* Retransmission of 0 arrives; cumulative moves to 3 (3 still lost):
     partial ack must retransmit 3 without leaving recovery. *)
  let partial =
    Tcp.Newreno_core.on_ack t ~now:0.2 (ack ~next:3 ~for_seq:0 ())
  in
  Alcotest.(check (list int)) "retransmits next hole" [ 3 ]
    (retransmissions partial)

let test_newreno_full_ack_deflates () =
  let t = newreno ~cwnd:8. () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  let dup for_seq = ack ~next:0 ~for_seq () in
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (dup 1));
  ignore (Tcp.Newreno_core.on_ack t ~now:0.11 (dup 2));
  ignore (Tcp.Newreno_core.on_ack t ~now:0.12 (dup 3));
  (* Full ACK covering everything sent (limited transmit pushed
     snd_next to 10): recovery exits, cwnd returns to
     ssthresh = min(flight, cwnd)/2 = 4. *)
  ignore (Tcp.Newreno_core.on_ack t ~now:0.2 (ack ~next:10 ~for_seq:0 ()));
  check_float "deflated to ssthresh" 4. (Tcp.Newreno_core.cwnd t)

let test_newreno_rto_collapses () =
  let t = newreno ~cwnd:8. () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  let actions = Tcp.Newreno_core.on_timer t ~now:3. ~key:0 in
  check_float "cwnd 1" 1. (Tcp.Newreno_core.cwnd t);
  Alcotest.(check (list int)) "retransmits first unacked" [ 0 ]
    (retransmissions actions);
  Alcotest.(check (list int)) "timer re-armed" [ 0 ] (timer_keys actions)

let test_newreno_finishes () =
  let t = newreno ~total:(Some 3) ~cwnd:4. () in
  let start = Tcp.Newreno_core.start t ~now:0. in
  Alcotest.(check (list int)) "only 3 to send" [ 0; 1; 2 ] (new_sends start);
  Alcotest.(check bool) "not finished" false (Tcp.Newreno_core.finished t);
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (ack ~next:3 ~for_seq:2 ()));
  Alcotest.(check bool) "finished" true (Tcp.Newreno_core.finished t)

let test_newreno_stale_ack_ignored () =
  let t = newreno ~cwnd:4. () in
  ignore (Tcp.Newreno_core.start t ~now:0.);
  ignore (Tcp.Newreno_core.on_ack t ~now:0.1 (ack ~next:2 ~for_seq:1 ()));
  let actions =
    Tcp.Newreno_core.on_ack t ~now:0.2 (ack ~next:1 ~for_seq:0 ())
  in
  Alcotest.(check int) "no reaction to stale ack" 0 (List.length actions);
  Alcotest.(check int) "snd_una unchanged" 2 (Tcp.Newreno_core.acked t)

let () =
  Alcotest.run "tcp"
    [ ( "intervals",
        [ Alcotest.test_case "merge" `Quick test_intervals_merge;
          Alcotest.test_case "disjoint" `Quick test_intervals_disjoint;
          Alcotest.test_case "add_range overlap" `Quick
            test_intervals_add_range_overlap;
          Alcotest.test_case "remove_below" `Quick test_intervals_remove_below;
          Alcotest.test_case "remove_range" `Quick test_intervals_remove_range;
          Alcotest.test_case "counts" `Quick test_intervals_counts;
          Alcotest.test_case "containing" `Quick test_intervals_containing;
          QCheck_alcotest.to_alcotest ~long:false intervals_model_prop;
          QCheck_alcotest.to_alcotest ~long:false intervals_remove_prop;
          QCheck_alcotest.to_alcotest ~long:false
            intervals_add_remove_roundtrip_prop;
          QCheck_alcotest.to_alcotest ~long:false intervals_merge_adjacent_prop;
          QCheck_alcotest.to_alcotest ~long:false intervals_nth_smallest_prop;
          QCheck_alcotest.to_alcotest ~long:false intervals_op_sequence_prop ]
      );
      ( "rto",
        [ Alcotest.test_case "initial" `Quick test_rto_initial;
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "converges" `Quick test_rto_converges;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "max clamp" `Quick test_rto_max_clamp;
          Alcotest.test_case "min clamp" `Quick test_rto_min_clamp;
          Alcotest.test_case "backoff without sample" `Quick
            test_rto_backoff_without_sample;
          Alcotest.test_case "backoff survives sample" `Quick
            test_rto_backoff_survives_sample;
          Alcotest.test_case "backoff at floor" `Quick
            test_rto_backoff_at_floor;
          Alcotest.test_case "fresh ack sampled" `Quick
            test_rto_sample_on_fresh_ack;
          Alcotest.test_case "Karn invalidation" `Quick
            test_rto_karn_invalidation ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) rto_props );
      ( "receiver",
        [ Alcotest.test_case "in order" `Quick test_receiver_in_order;
          Alcotest.test_case "gap produces sack" `Quick test_receiver_gap_sack;
          Alcotest.test_case "recency order" `Quick
            test_receiver_sack_recency_order;
          Alcotest.test_case "blocks merge" `Quick test_receiver_blocks_merge;
          Alcotest.test_case "hole fill drains" `Quick
            test_receiver_hole_fill_drains;
          Alcotest.test_case "dsack below cumulative" `Quick
            test_receiver_dsack_below_cumulative;
          Alcotest.test_case "dsack in buffer" `Quick
            test_receiver_dsack_in_buffer;
          Alcotest.test_case "delack alternates" `Quick
            test_receiver_delack_alternates;
          Alcotest.test_case "delack gap acks now" `Quick
            test_receiver_delack_gap_acks_now;
          Alcotest.test_case "delack duplicate acks now" `Quick
            test_receiver_delack_duplicate_acks_now;
          Alcotest.test_case "delack off never defers" `Quick
            test_receiver_delack_off_never_defers;
          Alcotest.test_case "reorder depth histogram" `Quick
            test_receiver_reorder_depth;
          Alcotest.test_case "reorder classification (RFC 4737)" `Quick
            test_receiver_reorder_classification;
          Alcotest.test_case "delack timer fires" `Quick
            test_connection_delack_timer_fires;
          QCheck_alcotest.to_alcotest ~long:false receiver_permutation_prop ] );
      ( "reuse",
        [ Alcotest.test_case "refuses a pending transfer" `Quick
            test_reuse_refuses_pending;
          Alcotest.test_case "reused equals fresh" `Quick
            test_reuse_equals_fresh ] );
      ( "newreno",
        [ Alcotest.test_case "start" `Quick test_newreno_start;
          Alcotest.test_case "slow start growth" `Quick
            test_newreno_slow_start_growth;
          Alcotest.test_case "fast retransmit" `Quick
            test_newreno_fast_retransmit_at_dupthresh;
          Alcotest.test_case "limited transmit" `Quick
            test_newreno_limited_transmit;
          Alcotest.test_case "partial ack" `Quick
            test_newreno_partial_ack_retransmits;
          Alcotest.test_case "full ack deflates" `Quick
            test_newreno_full_ack_deflates;
          Alcotest.test_case "rto collapses" `Quick test_newreno_rto_collapses;
          Alcotest.test_case "bounded transfer" `Quick test_newreno_finishes;
          Alcotest.test_case "stale ack ignored" `Quick
            test_newreno_stale_ack_ignored ] ) ]
