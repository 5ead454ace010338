type dupthresh_policy =
  | Static
  | Constant_increment of int
  | Average
  | Ewma

(* How spurious retransmissions are detected: through the receiver's
   DSACK reports (Blanton-Allman) or through the timestamp echo (Eifel)
   — the latter fires one round-trip earlier, on the very first ACK
   generated by the late original. *)
type detection =
  | Dsack
  | Timestamp

type response = {
  react_to_dsack : bool;
  policy : dupthresh_policy;
  detection : detection;
}

let plain_sack = { react_to_dsack = false; policy = Static; detection = Dsack }

let dsack_nm = { react_to_dsack = true; policy = Static; detection = Dsack }

let inc_by_1 =
  { react_to_dsack = true; policy = Constant_increment 1; detection = Dsack }

let inc_by_n = { react_to_dsack = true; policy = Average; detection = Dsack }

let ewma = { react_to_dsack = true; policy = Ewma; detection = Dsack }

let eifel = { react_to_dsack = true; policy = Static; detection = Timestamp }

(* When fast retransmit fires: [Immediate] follows RFC 3517;
   [Time_delayed] is TD-FR — on detecting a loss it waits
   [max(srtt / 2, DT)] after the first duplicate ACK (DT = spread
   between the first and third duplicates) and enters recovery only if
   the loss indication persists. *)
type trigger =
  | Immediate
  | Time_delayed
  | Rack

let rto_key = 0

let td_key = 1

let rack_key = 2

(* Gain of the [Ewma] dupthresh policy, and the cap on any adapted
   dupthresh. *)
let ewma_gain = 0.25

let max_dupthresh = 1_000

(* Remembered per retransmission, to undo the window reduction and feed
   the dupthresh policies when a DSACK later proves it spurious. *)
type retx_event = {
  cwnd_before : float;
  mutable dups_observed : int;
      (* duplicate ACKs seen during the reordering episode; finalised
         when the cumulative ACK passes the segment *)
  mutable finalised : bool;
}

(* Hot mutable float state lives in one flat [floatarray] ([fs] below):
   these fields are written on the per-ACK path, and a [mutable float]
   field in a mixed record boxes every write. [rack_deadline_] uses
   [infinity] as "no deadline" so the former [float option] stops
   allocating a [Some] per RACK re-evaluation. *)
let cwnd_ = 0

let ssthresh_ = 1

let dupthresh_ewma_ = 2

let cwnd_prior_ = 3

let first_dup_at_ = 4

let episode_dt_ = 5

let rack_xmit_time_ = 6

let rack_reo_factor_ = 7

let freeze_until_ = 8

let last_reduction_at_ = 9

let rack_deadline_ = 10

let fs_slots = 11

type t = {
  mutable config : Config.t;
  response : response;
  trigger : trigger;
  (* TCP-DOOR: react to out-of-order ACK delivery (detected through the
     ACK serial number) by freezing congestion responses for ~1 RTT and
     undoing a recent one. *)
  door : bool;
  fs : floatarray;
  mutable snd_una : int;
  mutable snd_next : int;
  mutable dupthresh : int;
  mutable in_recovery : bool;
  mutable recovery_point : int;
  (* The RFC 6675 scoreboard, in place. [sacked] and [lost_pending]
     (segments declared lost, awaiting retransmission) are disjoint;
     [retx_out] holds segments retransmitted and considered back in
     flight. *)
  sacked : Interval_buf.t;
  lost_pending : Interval_buf.t;
  retx_out : Interval_buf.t;
  (* Loss-marking watermark: every seq in [snd_una, lost_scan_hi] is
     SACKed, lost-pending or in [retx_out], so IsLost only ever looks
     above it (DESIGN.md §18). *)
  mutable lost_scan_hi : int;
  mutable episode_dups : int;
  mutable td_armed : bool;
  (* Right edge of the receiver's advertised window: new data may be
     sent only below this. [max_int] while the peer advertises an
     unbounded window (finite receive buffer disabled). *)
  mutable rwnd_limit : int;
  (* TCP-DOOR state. *)
  mutable last_serial : int;
  mutable n_ooo_events : int;
  rto : Rto.t;
  mutable rto_armed : bool;
  (* Per-sequence ring over [snd_una, snd_next) ({!Seq_ring}, TCP-PR's
     layout): slot [seq land (cap - 1)] holds the last send time and an
     ever-retransmitted flag byte (Karn's rule). Slots alias seqs modulo
     [cap], so reads of a seq that may lie outside the span guard on it
     first; acknowledged slots have their flag cleared. *)
  mutable cap : int;
  mutable sent_at : floatarray;
  mutable retx_flag : Bytes.t;
  (* Whether the response ever reads a [retx_event]: DSACK reactions
     and Eifel do; plain SACK, TD-FR and TCP-DOOR record none. *)
  keeps_events : bool;
  retx_events : (int, retx_event) Hashtbl.t;
  (* metrics *)
  mutable n_sent : int;
  mutable n_retx : int;
  mutable n_fast_retx : int;
  mutable n_timeouts : int;
  mutable n_spurious : int;
}

let fget t i = Float.Array.unsafe_get t.fs i

let fset t i v = Float.Array.unsafe_set t.fs i v

(* 256 slots, not TCP-PR's 64: a smaller ring would shrink [create]'s
   allocation, and the benchmark's set-up timing is sensitive to that
   (ROADMAP, benchmark items). *)
let initial_cap = 256

(* Every initial value is written here; [create] allocates, then
   resets. The ring, the scoreboards and the event table keep their
   grown size. Only the Karn flags need clearing in the ring: a send
   time is read only for a seq in [snd_una, snd_next), and every such
   seq has been sent since. *)
let reset t config =
  Config.validate config;
  t.config <- config;
  fset t cwnd_ config.Config.initial_cwnd;
  fset t ssthresh_ Config.initial_ssthresh;
  fset t dupthresh_ewma_ (float_of_int Config.dupthresh);
  fset t cwnd_prior_ config.Config.initial_cwnd;
  fset t first_dup_at_ 0.;
  fset t episode_dt_ 0.;
  (* RACK: send time of the most recently transmitted packet known
     delivered; the reordering window starts at RTT/4 (RFC 8985). *)
  fset t rack_xmit_time_ neg_infinity;
  fset t rack_reo_factor_ 0.25;
  fset t freeze_until_ neg_infinity;
  fset t last_reduction_at_ neg_infinity;
  fset t rack_deadline_ infinity;
  t.snd_una <- 0;
  t.snd_next <- 0;
  t.dupthresh <- Config.dupthresh;
  t.in_recovery <- false;
  t.recovery_point <- -1;
  Interval_buf.clear t.sacked;
  Interval_buf.clear t.lost_pending;
  Interval_buf.clear t.retx_out;
  t.lost_scan_hi <- -1;
  t.episode_dups <- 0;
  t.td_armed <- false;
  (* The sender shares [Config.t] with the receiver, so it knows the
     initial window without a handshake. *)
  t.rwnd_limit <-
    (match config.Config.rcv_buf_segments with
    | Some n -> n
    | None -> max_int);
  t.last_serial <- -1;
  t.n_ooo_events <- 0;
  Rto.reset t.rto config;
  t.rto_armed <- false;
  Bytes.fill t.retx_flag 0 t.cap '\000';
  Hashtbl.clear t.retx_events;
  t.n_sent <- 0;
  t.n_retx <- 0;
  t.n_fast_retx <- 0;
  t.n_timeouts <- 0;
  t.n_spurious <- 0

let create ?(response = plain_sack) ?(trigger = Immediate) ?(door = false)
    config =
  let t =
    { config;
      response;
      trigger;
      door;
      fs = Float.Array.make fs_slots 0.;
      snd_una = 0;
      snd_next = 0;
      dupthresh = 0;
      in_recovery = false;
      recovery_point = 0;
      sacked = Interval_buf.create ();
      lost_pending = Interval_buf.create ();
      retx_out = Interval_buf.create ();
      lost_scan_hi = 0;
      episode_dups = 0;
      td_armed = false;
      rwnd_limit = 0;
      last_serial = 0;
      n_ooo_events = 0;
      rto = Rto.create config;
      rto_armed = false;
      cap = initial_cap;
      sent_at = Float.Array.make initial_cap 0.;
      retx_flag = Bytes.create initial_cap;
      keeps_events =
        (response.react_to_dsack && response.detection = Dsack)
        || response.detection = Timestamp;
      retx_events = Hashtbl.create 64;
      n_sent = 0;
      n_retx = 0;
      n_fast_retx = 0;
      n_timeouts = 0;
      n_spurious = 0 }
  in
  reset t config;
  t

let cwnd t = fget t cwnd_

let acked t = t.snd_una

let dupthresh t = t.dupthresh

let in_recovery t = t.in_recovery

let flight t = t.snd_next - t.snd_una

let finished t =
  match t.config.Config.total_segments with
  | Some total -> t.snd_una >= total
  | None -> false

let all_data_sent t =
  match t.config.Config.total_segments with
  | Some total -> t.snd_next >= total
  | None -> false

(* Packets believed in the network: outstanding minus SACKed minus
   lost-and-not-yet-retransmitted. Retransmitted segments are in
   [retx_out], i.e. no longer in [lost_pending], so they count. *)
let pipe t =
  flight t
  - Interval_buf.cardinal t.sacked
  - Interval_buf.cardinal t.lost_pending

let metrics t =
  [ ("sent", float_of_int t.n_sent);
    ("retransmits", float_of_int t.n_retx);
    ("fast_retransmits", float_of_int t.n_fast_retx);
    ("timeouts", float_of_int t.n_timeouts);
    ("spurious_detected", float_of_int t.n_spurious);
    ("ooo_events", float_of_int t.n_ooo_events);
    ("dupthresh", float_of_int t.dupthresh);
    ("cwnd", fget t cwnd_);
    ("ssthresh", fget t ssthresh_);
    (* -1 before the first valid sample, mirroring [Rto.srtt]'s None;
       the check monitors watch this for Karn-rule violations. *)
    ("srtt", Option.value (Rto.srtt t.rto) ~default:(-1.)) ]

(* The retransmission timer restarts only when new data is acknowledged
   (RFC 2988 5.3); duplicate ACKs must not postpone it, or a lost
   retransmission is never repaired. *)
let arm_rto t buf =
  t.rto_armed <- true;
  Action_buffer.set_timer_ns buf ~key:rto_key ~delay:(Rto.current_ns t.rto)

let disarm_rto t buf =
  t.rto_armed <- false;
  Action_buffer.cancel_timer buf ~key:rto_key

(* --- per-sequence ring ------------------------------------------------ *)

let in_span t seq = seq >= t.snd_una && seq < t.snd_next

let slot t seq = seq land (t.cap - 1)

let last_sent t seq = Float.Array.unsafe_get t.sent_at (slot t seq)

let ever_retransmitted t seq =
  Bytes.unsafe_get t.retx_flag (slot t seq) <> '\000'

(* Called before a seq is admitted at the top of the span (see
   {!Seq_ring}). *)
let ensure_span t ~span =
  if span > t.cap then begin
    let cap = Seq_ring.cap_for ~cap:t.cap ~span in
    let lo = t.snd_una and hi = t.snd_next in
    t.sent_at <- Seq_ring.regrow_floats t.sent_at ~cap ~lo ~hi;
    t.retx_flag <- Seq_ring.regrow_bytes t.retx_flag ~cap ~lo ~hi;
    t.cap <- cap
  end

(* [seq] is in span: new data was just admitted to it, retransmissions
   come from the scoreboard, which never holds a seq outside it. *)
let send t ~now ~seq ~retx buf =
  t.n_sent <- t.n_sent + 1;
  if retx then begin
    t.n_retx <- t.n_retx + 1;
    Bytes.unsafe_set t.retx_flag (slot t seq) '\001';
    Interval_buf.add t.retx_out seq;
    if t.keeps_events then
      Hashtbl.replace t.retx_events seq
        { cwnd_before = fget t cwnd_prior_;
          dups_observed = t.episode_dups;
          finalised = false }
  end;
  Float.Array.unsafe_set t.sent_at (slot t seq) now;
  if retx then Action_buffer.send_retx buf ~seq
  else Action_buffer.send buf ~seq

(* Declare lost every unSACKed segment with >= dupthresh SACKed
   segments above it (RFC 6675 IsLost at packet granularity). Those
   segments are exactly [snd_una, s*], with s* one below the
   dupthresh-th highest SACKed seq. Marks are never withdrawn, and
   everything up to [lost_scan_hi] is already accounted for, so only
   the seqs above the watermark need a look: per ACK the cost follows
   how far s* moved, not the window. *)
let update_lost_dupthresh t =
  let n = Interval_buf.cardinal t.sacked in
  if n >= t.dupthresh then begin
    let s_star = Interval_buf.nth_smallest t.sacked (n - t.dupthresh) - 1 in
    if s_star > t.lost_scan_hi then begin
      let lo =
        if t.lost_scan_hi < t.snd_una then t.snd_una else t.lost_scan_hi + 1
      in
      for seq = lo to s_star do
        if
          (not (Interval_buf.mem t.sacked seq))
          && (not (Interval_buf.mem t.lost_pending seq))
          && not (Interval_buf.mem t.retx_out seq)
        then Interval_buf.add t.lost_pending seq
      done;
      t.lost_scan_hi <- s_star
    end
  end

let rack_rtt t = Rto.srtt_or t.rto ~default:t.config.Config.initial_rto

let rack_reo_wnd t = fget t rack_reo_factor_ *. rack_rtt t

(* RACK (RFC 8985, simplified, no TLP): a segment is lost once a
   later-sent segment has been delivered and at least reo_wnd more time
   has elapsed — purely time-based detection, like TCP-PR — or once it
   has been outstanding longer than rtt + reo_wnd (tail losses, caught
   by the reordering timer). *)
let update_lost_rack t ~now =
  fset t rack_deadline_ infinity;
  let reo_wnd = rack_reo_wnd t in
  let rtt = rack_rtt t in
  for seq = t.snd_una to t.snd_next - 1 do
    if
      (not (Interval_buf.mem t.sacked seq))
      && (not (Interval_buf.mem t.lost_pending seq))
      && not (Interval_buf.mem t.retx_out seq)
    then begin
      let sent = last_sent t seq in
      if fget t rack_xmit_time_ >= sent then begin
        (* Covered: a segment sent at or after this one was delivered.
           Lost once the coverage is older than reo_wnd, or once the
           reordering timer runs out. The expiry test evaluates the
           very expression the timer was armed with: the algebraically
           equal [now -. sent >= rtt +. reo_wnd] can miss by one ulp at
           the instant the timer fires, which then re-arms at that
           instant forever. Uncovered segments are the RTO's job. *)
        let deadline = sent +. rtt +. reo_wnd in
        if fget t rack_xmit_time_ -. sent > reo_wnd || deadline <= now then
          Interval_buf.add t.lost_pending seq
        else if deadline < fget t rack_deadline_ then
          fset t rack_deadline_ deadline
      end
    end
  done

let update_lost t ~now =
  match t.trigger with
  | Rack -> update_lost_rack t ~now
  | Immediate | Time_delayed -> update_lost_dupthresh t

(* Retransmissions happen inside fast recovery or during post-timeout
   repair (below the recovery point). Under the [Time_delayed] trigger
   this is what holds retransmission back until the delay timer
   confirms the loss. *)
let retransmit_allowed t = t.in_recovery || t.snd_una <= t.recovery_point

(* At most this many segments leave per ACK or timer event (the ns-2
   "maxburst" discipline): after a stall, releasing the whole window at
   line rate would overflow the bottleneck queue and lose the very
   retransmissions recovery depends on. *)
let max_burst = 4

(* Move the smallest lost segment from [lost_pending] to [retx_out] by
   retransmitting it. *)
let retransmit_first_lost t ~now buf =
  let seq = Interval_buf.min_elt t.lost_pending in
  Interval_buf.remove_range t.lost_pending ~first:seq ~last:seq;
  send t ~now ~seq ~retx:true buf

(* Transmission loop: while pipe < cwnd, retransmit the smallest lost
   segment, else send new data (RFC 3517 NextSeg rules 1 and 2).

   Top-level recursion, not an inner [let rec loop]: the inner closure
   would capture [t]/[now]/[buf] and be allocated on every ACK. *)
let rec send_loop t ~now buf emitted =
  if emitted >= max_burst then ()
  else if
    (* Inline clamp, once per send-loop iteration: see [grow_window]. *)
    let c = fget t cwnd_ in
    let m = t.config.Config.max_cwnd in
    float_of_int (pipe t) >= (if c < m then c else m)
  then ()
  else if retransmit_allowed t && not (Interval_buf.is_empty t.lost_pending)
  then begin
    retransmit_first_lost t ~now buf;
    send_loop t ~now buf (emitted + 1)
  end
  else if all_data_sent t || t.snd_next >= t.rwnd_limit then ()
  else begin
    let seq = t.snd_next in
    ensure_span t ~span:(seq + 1 - t.snd_una);
    t.snd_next <- seq + 1;
    send t ~now ~seq ~retx:false buf;
    send_loop t ~now buf (emitted + 1)
  end

let send_allowed t ~now buf = send_loop t ~now buf 0

let start t ~now buf =
  let mark = Action_buffer.length buf in
  send_allowed t ~now buf;
  if Action_buffer.length buf > mark then arm_rto t buf

let grow_window t =
  if t.in_recovery then ()
  else begin
    let cwnd = fget t cwnd_ in
    let cwnd =
      if cwnd < fget t ssthresh_ then cwnd +. 1. else cwnd +. (1. /. cwnd)
    in
    (* Inline clamp: a [Float.min] call here boxes its operand and its
       result on every in-order ACK. *)
    let m = t.config.Config.max_cwnd in
    fset t cwnd_ (if cwnd < m then cwnd else m)
  end

let enter_recovery t ~now =
  t.n_fast_retx <- t.n_fast_retx + 1;
  (* A TCP-DOOR freeze window suppresses the window reduction — the
     "loss" is presumed to be reordering from a route change — but
     recovery bookkeeping and retransmission still proceed. *)
  if now >= fget t freeze_until_ then begin
    fset t cwnd_prior_ (fget t cwnd_);
    fset t ssthresh_ (Float.max (fget t cwnd_ /. 2.) 2.);
    fset t cwnd_ (fget t ssthresh_);
    fset t last_reduction_at_ now
  end;
  t.recovery_point <- t.snd_next - 1;
  t.in_recovery <- true

(* On entering recovery the first lost segment is retransmitted
   immediately (RFC 6675 step 4.2), even if the pipe estimate is still
   above the reduced window. *)
let first_retransmit t ~now buf =
  if not (Interval_buf.is_empty t.lost_pending) then
    retransmit_first_lost t ~now buf

let apply_policy t ~observed =
  let updated =
    match t.response.policy with
    | Static -> t.dupthresh
    | Constant_increment k -> t.dupthresh + k
    | Average ->
      int_of_float (ceil ((float_of_int t.dupthresh +. float_of_int observed) /. 2.))
    | Ewma ->
      fset t dupthresh_ewma_
        (((1. -. ewma_gain) *. fget t dupthresh_ewma_)
        +. (ewma_gain *. float_of_int observed));
      int_of_float (Float.round (fget t dupthresh_ewma_))
  in
  t.dupthresh <- max 1 (min updated max_dupthresh)

(* A retransmission has been proven spurious: restore the
   pre-retransmit window (by slow-starting up to it), adapt dupthresh
   per the configured policy, and — under RACK — widen the reordering
   window. *)
let on_spurious t event =
  t.n_spurious <- t.n_spurious + 1;
  fset t ssthresh_ (Float.max (fget t ssthresh_) event.cwnd_before);
  apply_policy t ~observed:(max event.dups_observed 1);
  if t.trigger = Rack then
    fset t rack_reo_factor_ (Float.min (fget t rack_reo_factor_ +. 0.25) 1.)

(* A DSACK for a segment we retransmitted proves the retransmission
   spurious (Blanton-Allman detection). *)
let on_dsack t (block : Types.sack_block) =
  if t.response.react_to_dsack && t.response.detection = Dsack then begin
    for seq = block.Types.first to block.Types.last do
      match Hashtbl.find_opt t.retx_events seq with
      | None -> ()
      | Some event ->
        Hashtbl.remove t.retx_events seq;
        on_spurious t event
    done
  end

(* Eifel detection (Ludwig-Katz): the first ACK generated by a
   retransmitted sequence number reveals — through the timestamp echo,
   modelled by [for_retx] — whether the original or the retransmission
   arrived first. An original means the retransmission was spurious. *)
let eifel_check t (ack : Types.ack) =
  if t.response.detection = Timestamp then begin
    match Hashtbl.find_opt t.retx_events ack.Types.for_seq with
    | Some event ->
      Hashtbl.remove t.retx_events ack.Types.for_seq;
      if not ack.Types.for_retx then on_spurious t event
    | None -> ()
  end

let record_sack t (block : Types.sack_block) =
  let last = block.Types.last in
  if last >= t.snd_una then begin
    let first =
      if block.Types.first > t.snd_una then block.Types.first else t.snd_una
    in
    Interval_buf.add_range t.sacked ~first ~last;
    (* A segment provisionally declared lost that now turns out to be
       SACKed was merely reordered. *)
    Interval_buf.remove_range t.lost_pending ~first ~last
  end

(* Explicit recursion, not [List.iter (fun block -> ...)]: the closure
   would capture [t] and be allocated on every ACK, including the
   common SACK-less ones. *)
let rec record_sacks t sacks =
  match sacks with
  | [] -> ()
  | block :: rest ->
    record_sack t block;
    record_sacks t rest

let maybe_sample_rtt t ~now ~ack_next =
  let seq = ack_next - 1 in
  if in_span t seq && not (ever_retransmitted t seq) then
    Rto.sample_between t.rto ~sent_at:(last_sent t seq) ~now

let finalise_event t seq =
  match Hashtbl.find t.retx_events seq with
  | event ->
    if not event.finalised then begin
      event.finalised <- true;
      event.dups_observed <- max event.dups_observed t.episode_dups
    end
  | exception Not_found -> ()

(* The cumulative ACK is about to pass [bound]: finalise the duplicate
   count of every retransmission episode it covers and drop sender-side
   state for acknowledged segments. Only a retransmitted seq can have
   an event, and its flag stays set until this clears it, so unflagged
   seqs skip the table. Retransmission events are kept a while longer —
   the DSACK proving them spurious arrives after the cumulative ACK. *)
let advance_una t ~bound =
  (* Flags exist only in span. *)
  let hi = if bound < t.snd_next then bound else t.snd_next in
  for seq = t.snd_una to hi - 1 do
    if ever_retransmitted t seq then begin
      Bytes.unsafe_set t.retx_flag (slot t seq) '\000';
      if t.keeps_events then finalise_event t seq
    end
  done;
  t.snd_una <- bound;
  Interval_buf.remove_below t.sacked bound;
  Interval_buf.remove_below t.lost_pending bound;
  Interval_buf.remove_below t.retx_out bound

(* Retransmission events must eventually be garbage collected even if no
   DSACK ever arrives; anything far below snd_una can no longer be
   reported. *)
let gc_retx_events t =
  if Hashtbl.length t.retx_events > 4096 then begin
    let horizon = t.snd_una - 2048 in
    let stale =
      Hashtbl.fold
        (fun seq _ acc -> if seq < horizon then seq :: acc else acc)
        t.retx_events []
    in
    List.iter (Hashtbl.remove t.retx_events) stale
  end

(* TCP-DOOR: an ACK serial inversion means the reverse path reordered —
   a route change, not congestion. Disable congestion responses for one
   RTT and, if a response fired within the last two RTTs, undo it
   ("instant recovery"). *)
let door_check t ~now (ack : Types.ack) =
  if t.door then begin
    if ack.Types.serial < t.last_serial then begin
      t.n_ooo_events <- t.n_ooo_events + 1;
      let rtt = rack_rtt t in
      fset t freeze_until_ (Float.max (fget t freeze_until_) (now +. rtt));
      if now -. fget t last_reduction_at_ <= 2. *. rtt then
        fset t ssthresh_ (Float.max (fget t ssthresh_) (fget t cwnd_prior_))
    end
    else t.last_serial <- ack.Types.serial
  end

let on_ack t ~now (ack : Types.ack) buf =
  if finished t then ()
  else begin
    let lim =
      if ack.Types.rwnd = Types.rwnd_unbounded then max_int
      else ack.Types.next + ack.Types.rwnd
    in
    (* Monotone: a reordered ACK must not shrink the window. *)
    let win_update = lim > t.rwnd_limit in
    if win_update then t.rwnd_limit <- lim;
    door_check t ~now ack;
    eifel_check t ack;
    (match ack.Types.dsack with Some block -> on_dsack t block | None -> ());
    (* RACK: remember the send time of the most recently transmitted
       packet known to be delivered — the arrival generating this ACK.
       [for_seq] may be -1 (an acknowledgement for no segment) or
       already below [snd_una]. *)
    if in_span t ack.Types.for_seq then begin
      let sent = last_sent t ack.Types.for_seq in
      if sent > fget t rack_xmit_time_ then fset t rack_xmit_time_ sent
    end;
    record_sacks t ack.Types.sacks;
    let advanced = ack.Types.next > t.snd_una in
    if advanced then begin
      maybe_sample_rtt t ~now ~ack_next:ack.Types.next;
      Rto.reset_backoff t.rto;
      advance_una t ~bound:ack.Types.next;
      t.episode_dups <- 0;
      if t.in_recovery && t.snd_una > t.recovery_point then
        t.in_recovery <- false;
      grow_window t
    end
    else if ack.Types.next = t.snd_una && flight t > 0 && not win_update
    then begin
      (* RFC 5681: an ACK advertising a larger window is not a
         duplicate. *)
      t.episode_dups <- t.episode_dups + 1;
      if t.episode_dups = 1 then fset t first_dup_at_ now;
      if t.episode_dups = 3 then
        fset t episode_dt_ (now -. fget t first_dup_at_)
    end;
    update_lost t ~now;
    (* Losses at or below the recovery point were already reacted to
       (by fast recovery or by the timeout's slow start); only a loss
       beyond it starts a new window reduction — immediately, or after
       the TD-FR delay. *)
    let loss_detected =
      (not t.in_recovery)
      && t.snd_una > t.recovery_point
      && (not (Interval_buf.is_empty t.lost_pending))
      && flight t > 0
    in
    if loss_detected then begin
      match t.trigger with
      | Immediate | Rack ->
        enter_recovery t ~now;
        first_retransmit t ~now buf
      | Time_delayed ->
        let half_srtt =
          Rto.srtt_or t.rto ~default:t.config.Config.initial_rto /. 2.
        in
        let base =
          if t.episode_dups >= 1 then fget t first_dup_at_ else now
        in
        let expires = base +. Float.max half_srtt (fget t episode_dt_) in
        if (not t.td_armed) || t.episode_dups = 3 then begin
          t.td_armed <- true;
          Action_buffer.set_timer buf ~key:td_key
            ~delay:(Float.max (expires -. now) 0.)
        end
    end
    else if t.td_armed && Interval_buf.is_empty t.lost_pending then begin
      (* The loss indication evaporated (SACKed or cumulatively
         acknowledged): it was reordering, not loss. *)
      t.td_armed <- false;
      Action_buffer.cancel_timer buf ~key:td_key
    end;
    gc_retx_events t;
    send_allowed t ~now buf;
    if t.trigger = Rack && fget t rack_deadline_ < infinity then
      Action_buffer.set_timer buf ~key:rack_key
        ~delay:(Float.max (fget t rack_deadline_ -. now) 0.);
    if flight t = 0 && all_data_sent t then begin
      if t.rto_armed then disarm_rto t buf
    end
    else if advanced || not t.rto_armed then arm_rto t buf
  end

let on_rto t ~now buf =
  if flight t = 0 && all_data_sent t then ()
  else if flight t = 0 && t.snd_next >= t.rwnd_limit then
    (* Zero-window blocked: nothing is in flight and the peer has no
       room. This expiry is a persist probe slot, not a loss: keep the
       timer running (it guarantees liveness if the window-update ACK
       is lost) without counting a timeout or backing off. *)
    arm_rto t buf
  else begin
    t.n_timeouts <- t.n_timeouts + 1;
    (* FlightSize for the reduction is bounded by cwnd: outstanding data
       beyond cwnd (accumulated while the cumulative ACK was frozen)
       must not inflate the next slow-start threshold. *)
    let effective_flight =
      Float.min (float_of_int (flight t)) (fget t cwnd_)
    in
    fset t cwnd_prior_ (fget t cwnd_);
    fset t last_reduction_at_ now;
    if t.td_armed then begin
      t.td_armed <- false;
      Action_buffer.cancel_timer buf ~key:td_key
    end;
    fset t ssthresh_ (Float.max (effective_flight /. 2.) 2.);
    fset t cwnd_ 1.;
    t.in_recovery <- false;
    t.recovery_point <- t.snd_next - 1;
    t.episode_dups <- 0;
    Rto.backoff t.rto;
    (* Everything outstanding and unSACKed is presumed lost; the pipe
       drains and slow start rebuilds it. The whole span is now SACKed
       or lost-pending, which lets the loss-marking watermark jump to
       its top. *)
    Interval_buf.clear t.retx_out;
    for seq = t.snd_una to t.snd_next - 1 do
      if not (Interval_buf.mem t.sacked seq) then
        Interval_buf.add t.lost_pending seq
    done;
    t.lost_scan_hi <- t.snd_next - 1;
    send_allowed t ~now buf;
    arm_rto t buf
  end

(* TD-FR delay expired: if the loss indication still stands, enter
   recovery now and retransmit. *)
let on_td_timer t ~now buf =
  t.td_armed <- false;
  if
    (not t.in_recovery)
    && t.snd_una > t.recovery_point
    && (not (Interval_buf.is_empty t.lost_pending))
    && flight t > 0
  then begin
    enter_recovery t ~now;
    first_retransmit t ~now buf;
    send_allowed t ~now buf
  end

(* RACK reordering timer: time has run out for segments that were
   covered by later deliveries; re-evaluate the time-based loss rule
   and react. *)
let on_rack_timer t ~now buf =
  update_lost_rack t ~now;
  if
    (not t.in_recovery)
    && t.snd_una > t.recovery_point
    && (not (Interval_buf.is_empty t.lost_pending))
    && flight t > 0
  then begin
    enter_recovery t ~now;
    first_retransmit t ~now buf
  end;
  send_allowed t ~now buf;
  if fget t rack_deadline_ < infinity then
    Action_buffer.set_timer buf ~key:rack_key
      ~delay:(Float.max (fget t rack_deadline_ -. now) 0.)

let on_timer t ~now ~key buf =
  if key = rto_key then begin
    t.rto_armed <- false;
    on_rto t ~now buf
  end
  else if key = td_key then on_td_timer t ~now buf
  else if key = rack_key && t.trigger = Rack then on_rack_timer t ~now buf

let sender create : (module Sender.S) =
  (module struct
    type nonrec t = t

    let create = create

    let reset = reset

    let start = start

    let on_ack = on_ack

    let on_timer = on_timer

    let cwnd = cwnd

    let acked = acked

    let finished = finished

    let metrics = metrics
  end)
