type violation = {
  monitor : string;
  time : float;
  flow : int;
  message : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "[%s] t=%.6f flow=%d: %s" v.monitor v.time v.flow
    v.message

type t = {
  name : string;
  on_event : Tcp.Probe.event -> unit;
  violations : unit -> violation list;
  violation_count : unit -> int;
}

let name t = t.name

let on_event t event = t.on_event event

let violations t = t.violations ()

let violation_count t = t.violation_count ()

let max_violations = 50

(* Numerical slack for float comparisons on metrics that are computed
   incrementally by the senders. *)
let eps = 1e-9

(* Violation buffer shared by every monitor constructor: keeps the
   first [max_violations] reports and counts the rest, so a broken
   sender cannot blow up memory with millions of identical reports. *)
let collector () =
  let buffer = ref [] in
  let count = ref 0 in
  let add violation =
    incr count;
    if !count <= max_violations then buffer := violation :: !buffer
  in
  let violations () = List.rev !buffer in
  let violation_count () = !count in
  (add, violations, violation_count)

(* Per-flow state table. *)
let flow_state table flow init =
  match Hashtbl.find_opt table flow with
  | Some state -> state
  | None ->
    let state = init () in
    Hashtbl.add table flow state;
    state

let count_in table key =
  match Hashtbl.find_opt table key with Some n -> n | None -> 0

let incr_in table key =
  let n = count_in table key + 1 in
  Hashtbl.replace table key n;
  n

(* ------------------------------------------------------------------ *)
(* Exactly-once in-order delivery                                      *)
(* ------------------------------------------------------------------ *)

type delivery_state = {
  received : (int, unit) Hashtbl.t;  (* every segment ever received *)
  mutable next : int;  (* reference rcv_next *)
}

let delivery () =
  let name = "delivery" in
  let add, violations, violation_count = collector () in
  let report ~time ~flow fmt =
    Printf.ksprintf
      (fun message -> add { monitor = name; time; flow; message })
      fmt
  in
  let flows = Hashtbl.create 4 in
  let on_event = function
    | Tcp.Probe.Data_at_sink
        { time;
          flow;
          seq;
          retx = _;
          dup;
          buf_drop;
          rcv_next_before;
          rcv_next_after } ->
      let state =
        flow_state flows flow (fun () ->
            { received = Hashtbl.create 256; next = 0 })
      in
      if rcv_next_before <> state.next then
        report ~time ~flow
          "receiver rcv_next=%d disagrees with delivery oracle %d before \
           seq=%d arrives"
          rcv_next_before state.next seq;
      if buf_drop then begin
        (* Refused at the socket: the segment was never delivered, so
           the oracle must not record it — only check that the receiver
           did not advance past the drop. *)
        if rcv_next_after <> state.next then
          report ~time ~flow
            "seq=%d dropped at the socket yet rcv_next moved %d -> %d"
            seq rcv_next_before rcv_next_after
      end
      else begin
        let was_received = Hashtbl.mem state.received seq in
        if dup && not was_received then
          report ~time ~flow
            "seq=%d reported as duplicate but the oracle never saw it \
             (phantom DSACK)"
            seq;
        if was_received && not dup then
          report ~time ~flow
            "seq=%d delivered twice without a duplicate report (exactly-once \
             violated)"
            seq;
        Hashtbl.replace state.received seq ();
        while Hashtbl.mem state.received state.next do
          state.next <- state.next + 1
        done;
        if rcv_next_after <> state.next then
          report ~time ~flow
            "after seq=%d: receiver advanced rcv_next to %d, oracle expects \
             %d (in-order delivery violated)"
            seq rcv_next_after state.next
      end
    | Tcp.Probe.Sent _ | Tcp.Probe.Ack_at_sink _ | Tcp.Probe.Ack_at_source _
    | Tcp.Probe.Timer_fired _ -> ()
  in
  { name; on_event; violations; violation_count }

(* ------------------------------------------------------------------ *)
(* Conservation                                                        *)
(* ------------------------------------------------------------------ *)

type conservation_state = {
  sends : (int, int) Hashtbl.t;  (* seq -> times put on the wire *)
  arrivals : (int, int) Hashtbl.t;  (* seq -> times seen at the sink *)
  acks_emitted : (int, int) Hashtbl.t;  (* serial -> emissions at sink *)
  acks_arrived : (int, int) Hashtbl.t;  (* serial -> arrivals at source *)
  mutable last_serial : int;
}

let conservation () =
  let name = "conservation" in
  let add, violations, violation_count = collector () in
  let report ~time ~flow fmt =
    Printf.ksprintf
      (fun message -> add { monitor = name; time; flow; message })
      fmt
  in
  let flows = Hashtbl.create 4 in
  let state flow =
    flow_state flows flow (fun () ->
        { sends = Hashtbl.create 256;
          arrivals = Hashtbl.create 256;
          acks_emitted = Hashtbl.create 256;
          acks_arrived = Hashtbl.create 256;
          last_serial = -1 })
  in
  let on_event = function
    | Tcp.Probe.Sent { flow; seq; _ } ->
      ignore (incr_in (state flow).sends seq)
    | Tcp.Probe.Data_at_sink { time; flow; seq; _ } ->
      let s = state flow in
      let arrived = incr_in s.arrivals seq in
      let sent = count_in s.sends seq in
      if arrived > sent then
        report ~time ~flow
          "seq=%d arrived %d times but was only sent %d times (network \
           cannot mint data)"
          seq arrived sent
    | Tcp.Probe.Ack_at_sink { time; flow; ack } ->
      let s = state flow in
      ignore (incr_in s.acks_emitted ack.Tcp.Types.serial);
      if ack.Tcp.Types.serial <= s.last_serial then
        report ~time ~flow "ack serial %d not strictly increasing (last %d)"
          ack.Tcp.Types.serial s.last_serial
      else s.last_serial <- ack.Tcp.Types.serial
    | Tcp.Probe.Ack_at_source { time; flow; ack; _ } ->
      let s = state flow in
      let arrived = incr_in s.acks_arrived ack.Tcp.Types.serial in
      let emitted = count_in s.acks_emitted ack.Tcp.Types.serial in
      if arrived > emitted then
        report ~time ~flow
          "ack serial=%d reached the source %d times but the sink emitted \
           it %d times (network cannot mint ACKs)"
          ack.Tcp.Types.serial arrived emitted
    | Tcp.Probe.Timer_fired _ -> ()
  in
  { name; on_event; violations; violation_count }

(* ------------------------------------------------------------------ *)
(* Congestion-window sanity                                            *)
(* ------------------------------------------------------------------ *)

let cwnd_sanity ~config =
  let name = "cwnd-sanity" in
  let add, violations, violation_count = collector () in
  let report ~time ~flow fmt =
    Printf.ksprintf
      (fun message -> add { monitor = name; time; flow; message })
      fmt
  in
  (* Fast recovery inflates the window by one segment per duplicate ACK
     (RFC 6582); the inflated window is bounded by the pre-loss window
     plus ssthresh, hence the 2x slack over the configured clamp. *)
  let upper = (2. *. config.Tcp.Config.max_cwnd) +. 8. in
  let check ~time ~flow ~what (after : Tcp.Probe.sender_view) =
    if not (Float.is_finite after.Tcp.Probe.cwnd) then
      report ~time ~flow "cwnd not finite after %s" what
    else begin
      if after.Tcp.Probe.cwnd < 1. -. eps then
        report ~time ~flow "cwnd=%.6g < 1 after %s" after.Tcp.Probe.cwnd what;
      if after.Tcp.Probe.cwnd > upper then
        report ~time ~flow "cwnd=%.6g exceeds 2*max_cwnd+8=%.6g after %s"
          after.Tcp.Probe.cwnd upper what
    end
  in
  let on_event = function
    | Tcp.Probe.Ack_at_source { time; flow; after; _ } ->
      check ~time ~flow ~what:"ACK" after
    | Tcp.Probe.Timer_fired { time; flow; key; after; _ } ->
      check ~time ~flow ~what:(Printf.sprintf "timer key=%d" key) after
    | Tcp.Probe.Sent _ | Tcp.Probe.Data_at_sink _ | Tcp.Probe.Ack_at_sink _ ->
      ()
  in
  { name; on_event; violations; violation_count }

(* ------------------------------------------------------------------ *)
(* RTO discipline and Karn's rule                                      *)
(* ------------------------------------------------------------------ *)

type rto_state = {
  retransmitted : (int, unit) Hashtbl.t;
  mutable highest_next : int;  (* highest cumulative ACK seen at source *)
}

let rto_sanity ~config =
  let name = "rto-sanity" in
  let add, violations, violation_count = collector () in
  let report ~time ~flow fmt =
    Printf.ksprintf
      (fun message -> add { monitor = name; time; flow; message })
      fmt
  in
  let flows = Hashtbl.create 4 in
  let state flow =
    flow_state flows flow (fun () ->
        { retransmitted = Hashtbl.create 64; highest_next = 0 })
  in
  let min_rto = config.Tcp.Config.min_rto in
  let max_rto = config.Tcp.Config.max_rto in
  let check_arms ~time ~flow actions =
    List.iter
      (function
        | Tcp.Action.Set_timer { key = 0; delay } ->
          if delay < min_rto -. eps || delay > max_rto +. eps then
            report ~time ~flow
              "RTO armed at %.6fs outside [min_rto=%.3f, max_rto=%.3f]" delay
              min_rto max_rto
        | Tcp.Action.Set_timer _ | Tcp.Action.Send _
        | Tcp.Action.Cancel_timer _ -> ())
      actions
  in
  let srtt view = Tcp.Probe.metric view "srtt" in
  let on_event = function
    | Tcp.Probe.Sent { flow; seq; retx; _ } ->
      if retx then Hashtbl.replace (state flow).retransmitted seq ()
    | Tcp.Probe.Ack_at_source { time; flow; ack; before; after; actions } ->
      let s = state flow in
      check_arms ~time ~flow actions;
      let advanced = ack.Tcp.Types.next > s.highest_next in
      if srtt after <> srtt before then begin
        if not advanced then
          report ~time ~flow
            "srtt changed (%.6f -> %.6f) on an ACK with no cumulative \
             advance (next=%d)"
            (srtt before) (srtt after) ack.Tcp.Types.next
        else if Hashtbl.mem s.retransmitted (ack.Tcp.Types.next - 1) then
          report ~time ~flow
            "srtt changed (%.6f -> %.6f) although seq=%d was retransmitted \
             (Karn's rule)"
            (srtt before) (srtt after)
            (ack.Tcp.Types.next - 1)
      end;
      if advanced then s.highest_next <- ack.Tcp.Types.next
    | Tcp.Probe.Timer_fired { time; flow; key; before; after; actions } ->
      check_arms ~time ~flow actions;
      if srtt after <> srtt before then
        report ~time ~flow
          "srtt changed (%.6f -> %.6f) on timer key=%d (no ACK, no sample)"
          (srtt before) (srtt after) key
    | Tcp.Probe.Data_at_sink _ | Tcp.Probe.Ack_at_sink _ -> ()
  in
  { name; on_event; violations; violation_count }

(* ------------------------------------------------------------------ *)
(* TCP-PR                                                              *)
(* ------------------------------------------------------------------ *)

type pr_state = {
  (* timer-declared drops minus false drops minus retransmissions put on
     the wire; negative means a retransmission nothing authorised. *)
  mutable pending : int;
  mutable first_sample_seen : bool;
  mutable first_drop_seen : bool;
}

let tcp_pr ~config =
  let name = "tcp-pr" in
  let add, violations, violation_count = collector () in
  let report ~time ~flow fmt =
    Printf.ksprintf
      (fun message -> add { monitor = name; time; flow; message })
      fmt
  in
  let flows = Hashtbl.create 4 in
  let state flow =
    flow_state flows flow (fun () ->
        { pending = 0; first_sample_seen = false; first_drop_seen = false })
  in
  let alpha = config.Tcp.Config.pr_alpha in
  let beta = config.Tcp.Config.pr_beta in
  let max_rto = config.Tcp.Config.max_rto in
  let min_mxrtt = Core.Tcp_pr.min_mxrtt in
  let metric = Tcp.Probe.metric in
  let round x = int_of_float (Float.round x) in
  let check_envelope ~time ~flow (after : Tcp.Probe.sender_view) =
    let ewrtt = metric after "ewrtt" in
    let mxrtt = metric after "mxrtt" in
    (* The extreme-loss override caps doublings at max_rto, so the
       beta * ewrtt floor only binds below that cap. *)
    if mxrtt < Float.min (beta *. ewrtt) max_rto -. eps then
      report ~time ~flow "mxrtt=%.6f below beta*ewrtt=%.6f" mxrtt
        (beta *. ewrtt);
    if mxrtt < Float.min min_mxrtt max_rto -. eps then
      report ~time ~flow "mxrtt=%.6f below min_mxrtt=%.6f" mxrtt min_mxrtt
  in
  let settle ~time ~flow ~what state before after actions =
    let delta key = round (metric after key -. metric before key) in
    let drops = delta "drops_detected" in
    let false_drops = delta "false_drops" in
    state.pending <- state.pending + drops - false_drops;
    List.iter
      (function
        | Tcp.Action.Send { seq; retx = true } ->
          state.pending <- state.pending - 1;
          if state.pending < 0 then
            report ~time ~flow
              "retransmission of seq=%d during %s not covered by a \
               timer-declared drop (dupack-triggered retransmit?)"
              seq what
        | Tcp.Action.Send _ | Tcp.Action.Set_timer _
        | Tcp.Action.Cancel_timer _ -> ())
      actions;
    drops
  in
  let on_event = function
    | Tcp.Probe.Ack_at_source { time; flow; before; after; actions; _ } ->
      let s = state flow in
      let drops = settle ~time ~flow ~what:"ACK processing" s before after
          actions in
      if drops > 0 then
        report ~time ~flow
          "%d drop(s) declared while processing an ACK: TCP-PR detects \
           losses only by timer"
          drops;
      let ewrtt_before = metric before "ewrtt" in
      let ewrtt_after = metric after "ewrtt" in
      if ewrtt_after <> ewrtt_before && not s.first_sample_seen then
        (* The first real sample replaces the configured initial value
           outright and may legitimately shrink the envelope. *)
        s.first_sample_seen <- true
      else if ewrtt_after < (alpha *. ewrtt_before) -. eps then
        report ~time ~flow
          "ewrtt fell from %.6f to %.6f: faster than the alpha=%.4f decay \
           one sample allows"
          ewrtt_before ewrtt_after alpha;
      check_envelope ~time ~flow after
    | Tcp.Probe.Timer_fired { time; flow; key; before; after; actions } ->
      let s = state flow in
      let drops =
        settle ~time ~flow
          ~what:(Printf.sprintf "timer key=%d" key)
          s before after actions
      in
      if drops > 0 && not s.first_drop_seen then begin
        s.first_drop_seen <- true;
        (* The very first drop of a connection is never memorized and
           its at-send window snapshot is no larger than the current
           window, so multiplicative decrease is directly observable. *)
        let bound =
          Float.max (before.Tcp.Probe.cwnd /. 2.) 1. +. eps
        in
        if after.Tcp.Probe.cwnd > bound then
          report ~time ~flow
            "first drop shrank cwnd only to %.6g (was %.6g): multiplicative \
             decrease requires <= %.6g"
            after.Tcp.Probe.cwnd before.Tcp.Probe.cwnd bound
      end;
      check_envelope ~time ~flow after
    | Tcp.Probe.Sent _ | Tcp.Probe.Data_at_sink _ | Tcp.Probe.Ack_at_sink _ ->
      ()
  in
  { name; on_event; violations; violation_count }

(* ------------------------------------------------------------------ *)
(* Advertised-window conservation (finite receive buffer)              *)
(* ------------------------------------------------------------------ *)

(* The sink's advertised window is authoritative: the right edge
   [next + rwnd] is monotone over emitted acknowledgements (the sender
   clamps by max), every advertised window fits the configured buffer,
   and no data segment is ever put on the wire at or beyond the highest
   right edge ever advertised. Sink emission precedes source arrival,
   so the monitor's right edge always dominates the sender's view —
   a send beyond it is a genuine window violation, never a race. *)
type rwnd_state = { mutable right_edge : int }

let rwnd_conservation ~config =
  let name = "rwnd-conservation" in
  let add, violations, violation_count = collector () in
  let report ~time ~flow fmt =
    Printf.ksprintf
      (fun message -> add { monitor = name; time; flow; message })
      fmt
  in
  let initial =
    match config.Tcp.Config.rcv_buf_segments with
    | Some n -> n
    | None -> max_int
  in
  let max_rwnd = config.Tcp.Config.rcv_buf_max_segments in
  let flows = Hashtbl.create 4 in
  let state flow =
    flow_state flows flow (fun () -> { right_edge = initial })
  in
  let on_event = function
    | Tcp.Probe.Ack_at_sink { time; flow; ack } ->
      if ack.Tcp.Types.rwnd <> Tcp.Types.rwnd_unbounded then begin
        let s = state flow in
        if ack.Tcp.Types.rwnd < 0 then
          report ~time ~flow "negative advertised window rwnd=%d"
            ack.Tcp.Types.rwnd;
        if ack.Tcp.Types.rwnd > max_rwnd then
          report ~time ~flow
            "advertised rwnd=%d exceeds the configured buffer cap %d"
            ack.Tcp.Types.rwnd max_rwnd;
        let edge = ack.Tcp.Types.next + ack.Tcp.Types.rwnd in
        if edge > s.right_edge then s.right_edge <- edge
      end
    | Tcp.Probe.Sent { time; flow; seq; _ } ->
      let s = state flow in
      if seq >= s.right_edge then
        report ~time ~flow
          "seq=%d sent at or beyond the advertised right edge %d (receiver \
           window overrun)"
          seq s.right_edge
    | Tcp.Probe.Data_at_sink _ | Tcp.Probe.Ack_at_source _
    | Tcp.Probe.Timer_fired _ -> ()
  in
  { name; on_event; violations; violation_count }

(* ------------------------------------------------------------------ *)
(* Zero-window liveness                                                *)
(* ------------------------------------------------------------------ *)

(* Once the sink advertises a zero window, some later acknowledgement
   must reopen it (rwnd > 0) — otherwise the flow deadlocks. Checked at
   the end of the run: a flow whose last finite advertisement was zero
   is stuck. Only meaningful with an application reader configured;
   without one a final zero window is the expected terminal state. *)
let zero_window_liveness ~config =
  let name = "zero-window-liveness" in
  (* flow -> time of the standing zero window; negative = window open *)
  let flows : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let on_event = function
    | Tcp.Probe.Ack_at_sink { time; flow; ack } ->
      if ack.Tcp.Types.rwnd = 0 then Hashtbl.replace flows flow time
      else if ack.Tcp.Types.rwnd <> Tcp.Types.rwnd_unbounded then
        Hashtbl.replace flows flow (-1.)
    | Tcp.Probe.Sent _ | Tcp.Probe.Data_at_sink _ | Tcp.Probe.Ack_at_source _
    | Tcp.Probe.Timer_fired _ -> ()
  in
  let drained = config.Tcp.Config.rcv_app_rate <> None in
  let violations () =
    if not drained then []
    else
      Hashtbl.fold
        (fun flow since acc ->
          if since >= 0. then
            { monitor = name;
              time = since;
              flow;
              message =
                Printf.sprintf
                  "zero window advertised at t=%.6f was never reopened \
                   (liveness lost despite application drain)"
                  since }
            :: acc
          else acc)
        flows []
      |> List.sort compare
  in
  { name;
    on_event;
    violations;
    violation_count = (fun () -> List.length (violations ())) }

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)
(* ------------------------------------------------------------------ *)

let for_variant ~variant ~config =
  let base = [ delivery (); conservation (); cwnd_sanity ~config ] in
  let base =
    if Experiments.Variants.canonical variant = "tcp-pr" then
      base @ [ tcp_pr ~config ]
    else base @ [ rto_sanity ~config ]
  in
  if Tcp.Config.hoststack_enabled config then
    base @ [ rwnd_conservation ~config; zero_window_liveness ~config ]
  else base

let arm probe monitors =
  Sim.Trace.on probe (fun event ->
      List.iter (fun monitor -> monitor.on_event event) monitors)

let all_violations monitors =
  List.concat_map (fun monitor -> monitor.violations ()) monitors
