let name = "TCP-PR"

let drop_timer_key = 0

let backoff_timer_key = 1

let min_mxrtt = 0.01

type mode =
  | Slow_start
  | Cong_avoid

(* Per-packet sender state, struct-of-arrays.

   Table 1's three lists (to-be-ack, to-be-sent, memorize) plus the
   drop-time and original-transmission-time maps all key on the packet
   sequence number, and every member lies in the active span
   [snd_una, next_new) — everything below the cumulative ACK has been
   removed from every list. So the whole per-packet state lives in one
   ring indexed by [seq land (cap - 1)]: a state-bits byte and three
   float slots (last send time — which doubles as the drop time once
   the packet is declared dropped, exactly the value the old drop_times
   map held —, cwnd at send, first-transmission time). This replaces a
   per-send record + queue-cell + tuple + boxed float and per-ACK
   hashtable churn with flat stores: the ACK path performs zero
   allocation. Ring slots alias seqs modulo [cap], so every lookup
   guards on span membership first; any seq leaving all lists has its
   state byte zeroed, keeping reused slots clean. *)

let outstanding_bit = 1 (* in to-be-ack: sent, awaiting acknowledgement *)

let memorize_bit = 2 (* in the memorize snapshot (implies outstanding) *)

let pending_bit = 4 (* in to-be-sent: declared dropped, awaiting resend *)

let original_bit = 8 (* original_at holds the first-transmission time *)

(* Hot float scalars, one flat floatarray (mutable float fields in a
   mixed record would box every write on the ACK path).
   [mxrtt_override_] is 0. when no extreme-loss override is active (real
   overrides are >= 1 s). *)
let cwnd_ = 0

let ssthr_ = 1

let backoff_until_ = 2

let mxrtt_override_ = 3

let fs_slots = 4

type t = {
  mutable config : Tcp.Config.t;
  envelope : Ewrtt.t;
  mutable mode : mode;
  fs : floatarray;
  (* Packet-state ring, capacity a power of two >= next_new - snd_una. *)
  mutable cap : int;
  mutable state : Bytes.t;
  mutable sent_at : floatarray;
  mutable cwnd_send : floatarray;
  mutable original_at : floatarray;
  mutable out_count : int; (* to-be-ack cardinality *)
  mutable pending_count : int; (* to-be-sent cardinality *)
  (* Lower bound on the smallest to-be-sent seq: lowered when a drop is
     declared, advanced by scanning when the minimum is taken, so
     flush's min-lookup is O(1) amortised. *)
  mutable pending_min : int;
  (* Transmissions in send order, for O(1) earliest-deadline lookup:
     the head is the oldest outstanding send. Entries are validated
     lazily against the packet ring (a packet may have been
     acknowledged, declared dropped, or re-sent since). A seq/time pair
     ring replaces the old [(int * float) Queue.t], whose every push
     allocated a tuple, a boxed float, and a queue cell. *)
  mutable so_seq : int array;
  mutable so_time : floatarray;
  mutable so_head : int;
  mutable so_len : int;
  mutable next_new : int; (* next never-sent sequence number *)
  mutable snd_una : int; (* cumulative acknowledgement *)
  (* Right edge of the receiver's advertised window: new data may be
     sent only below this. [max_int] while the peer advertises an
     unbounded window (finite receive buffer disabled). *)
  mutable rwnd_limit : int;
  mutable memorize_size : int;
  mutable cburst : int;
  (* The extreme reset fires at most once per memorized burst: set on
     reset, cleared when the memorize list empties (a new burst). *)
  mutable burst_reacted : bool;
  (* Extreme-loss state (Section 3.2). While in back-off, [mxrtt] is
     overridden (>= 1 s, doubling on new drops) and sending is delayed
     until [backoff_until]. *)
  mutable extreme : bool;
  (* metrics *)
  mutable n_sent : int;
  mutable n_retx : int;
  mutable n_drops_detected : int;
  mutable n_false_drops : int;
  mutable n_extreme_resets : int;
  mutable n_mxrtt_doublings : int;
}

let fget t i = Float.Array.unsafe_get t.fs i

let fset t i v = Float.Array.unsafe_set t.fs i v

let initial_cap = 64

(* Every initial value is written here; [create] allocates, then
   resets. The rings keep their grown capacity. Only the state bytes
   need clearing: every float slot and send-order entry is read only
   behind a state bit or within [so_len], and each is written before
   its bit is set. *)
let reset t config =
  Tcp.Config.validate config;
  t.config <- config;
  Ewrtt.reset t.envelope config;
  t.mode <- Slow_start;
  fset t cwnd_ config.Tcp.Config.initial_cwnd;
  fset t ssthr_ Tcp.Config.initial_ssthresh;
  fset t backoff_until_ 0.;
  fset t mxrtt_override_ 0.;
  Bytes.fill t.state 0 t.cap '\000';
  t.out_count <- 0;
  t.pending_count <- 0;
  t.pending_min <- 0;
  t.so_head <- 0;
  t.so_len <- 0;
  t.next_new <- 0;
  t.snd_una <- 0;
  (* The sender shares [Config.t] with the receiver, so it knows the
     initial window without a handshake. *)
  t.rwnd_limit <-
    (match config.Tcp.Config.rcv_buf_segments with
    | Some n -> n
    | None -> max_int);
  t.memorize_size <- 0;
  t.cburst <- 0;
  t.burst_reacted <- false;
  t.extreme <- false;
  t.n_sent <- 0;
  t.n_retx <- 0;
  t.n_drops_detected <- 0;
  t.n_false_drops <- 0;
  t.n_extreme_resets <- 0;
  t.n_mxrtt_doublings <- 0

let create config =
  let t =
    { config;
      envelope = Ewrtt.create config;
      mode = Slow_start;
      fs = Float.Array.make fs_slots 0.;
      cap = initial_cap;
      state = Bytes.create initial_cap;
      sent_at = Float.Array.make initial_cap 0.;
      cwnd_send = Float.Array.make initial_cap 0.;
      original_at = Float.Array.make initial_cap 0.;
      out_count = 0;
      pending_count = 0;
      pending_min = 0;
      so_seq = Array.make initial_cap 0;
      so_time = Float.Array.make initial_cap 0.;
      so_head = 0;
      so_len = 0;
      next_new = 0;
      snd_una = 0;
      rwnd_limit = 0;
      memorize_size = 0;
      cburst = 0;
      burst_reacted = false;
      extreme = false;
      n_sent = 0;
      n_retx = 0;
      n_drops_detected = 0;
      n_false_drops = 0;
      n_extreme_resets = 0;
      n_mxrtt_doublings = 0 }
  in
  reset t config;
  t

(* --- ring primitives -------------------------------------------------- *)

let in_span t seq = seq >= t.snd_una && seq < t.next_new

let slot t seq = seq land (t.cap - 1)

let get_state t seq = Char.code (Bytes.unsafe_get t.state (slot t seq))

let set_state t seq st = Bytes.unsafe_set t.state (slot t seq) (Char.unsafe_chr st)

(* Grow the packet ring so the active span fits; called before a seq is
   admitted at the top of the span (see {!Tcp.Seq_ring}). *)
let ensure_span t ~span =
  if span > t.cap then begin
    let cap = Tcp.Seq_ring.cap_for ~cap:t.cap ~span in
    let lo = t.snd_una and hi = t.next_new in
    t.state <- Tcp.Seq_ring.regrow_bytes t.state ~cap ~lo ~hi;
    t.sent_at <- Tcp.Seq_ring.regrow_floats t.sent_at ~cap ~lo ~hi;
    t.cwnd_send <- Tcp.Seq_ring.regrow_floats t.cwnd_send ~cap ~lo ~hi;
    t.original_at <- Tcp.Seq_ring.regrow_floats t.original_at ~cap ~lo ~hi;
    t.cap <- cap
  end

let so_push t ~seq ~time =
  let cap = Array.length t.so_seq in
  if t.so_len = cap then begin
    let seqs = Array.make (2 * cap) 0 in
    let times = Float.Array.make (2 * cap) 0. in
    for k = 0 to cap - 1 do
      let i = (t.so_head + k) land (cap - 1) in
      Array.unsafe_set seqs k (Array.unsafe_get t.so_seq i);
      Float.Array.unsafe_set times k (Float.Array.unsafe_get t.so_time i)
    done;
    t.so_seq <- seqs;
    t.so_time <- times;
    t.so_head <- 0
  end;
  let i = (t.so_head + t.so_len) land (Array.length t.so_seq - 1) in
  Array.unsafe_set t.so_seq i seq;
  Float.Array.unsafe_set t.so_time i time;
  t.so_len <- t.so_len + 1

let so_pop t =
  t.so_head <- (t.so_head + 1) land (Array.length t.so_seq - 1);
  t.so_len <- t.so_len - 1

let so_head_seq t = Array.unsafe_get t.so_seq t.so_head

let so_head_time t = Float.Array.unsafe_get t.so_time t.so_head

(* --- accessors -------------------------------------------------------- *)

let cwnd t = fget t cwnd_

let acked t = t.snd_una

(* Inline clamp ([Float.max] boxes operand and result per call): this
   sits on the per-ACK drop-timer re-arm path. *)
let mxrtt t =
  let ov = fget t mxrtt_override_ in
  if ov > 0. then ov
  else begin
    let e = Ewrtt.mxrtt t.envelope in
    if e > min_mxrtt then e else min_mxrtt
  end

let ewrtt t = Ewrtt.ewrtt t.envelope

let outstanding t = t.out_count

let memorize_size t = t.memorize_size

let cburst t = t.cburst

let in_extreme_backoff t = t.extreme

let finished t =
  match t.config.Tcp.Config.total_segments with
  | Some total -> t.snd_una >= total
  | None -> false

let all_new_data_sent t =
  match t.config.Tcp.Config.total_segments with
  | Some total -> t.next_new >= total
  | None -> false

let metrics t =
  [ ("sent", float_of_int t.n_sent);
    ("retransmits", float_of_int t.n_retx);
    ("drops_detected", float_of_int t.n_drops_detected);
    ("false_drops", float_of_int t.n_false_drops);
    ("extreme_resets", float_of_int t.n_extreme_resets);
    ("mxrtt_doublings", float_of_int t.n_mxrtt_doublings);
    ("cwnd", fget t cwnd_);
    ("ewrtt", ewrtt t);
    ("mxrtt", mxrtt t);
    ("memorize_size", float_of_int t.memorize_size);
    ("outstanding", float_of_int t.out_count) ]

(* A [send_order] head is live if the packet is still outstanding with
   that exact send time (it may have been acknowledged, declared
   dropped, or re-sent since it was queued). *)
let rec drop_stale_heads t =
  if t.so_len > 0 then begin
    let seq = so_head_seq t in
    if
      not
        (in_span t seq
        && get_state t seq land outstanding_bit <> 0
        && Float.Array.unsafe_get t.sent_at (slot t seq) = so_head_time t)
    then begin
      so_pop t;
      drop_stale_heads t
    end
  end

(* Earliest drop deadline among outstanding packets. All entries share
   the same mxrtt and sends happen in time order, so it is the send
   time at the head of [send_order] plus mxrtt — O(1) amortised. *)
let arm_drop_timer t ~now buf =
  drop_stale_heads t;
  if t.so_len = 0 then
    Tcp.Action_buffer.cancel_timer buf ~key:drop_timer_key
  else begin
    let deadline = so_head_time t +. mxrtt t in
    let delay = deadline -. now in
    let delay = if delay > 0. then delay else 0. in
    Tcp.Action_buffer.set_timer_ns buf ~key:drop_timer_key
      ~delay:(Sim.Time.of_sec_delay delay)
  end

let send t ~now ~seq ~retx buf =
  t.n_sent <- t.n_sent + 1;
  if retx then t.n_retx <- t.n_retx + 1;
  let i = slot t seq in
  (* A retransmission keeps the first-transmission record; a fresh send
     creates it. Either way the packet is now exactly outstanding (the
     caller already took it out of to-be-sent). *)
  let st =
    if retx then get_state t seq land original_bit lor outstanding_bit
    else begin
      Float.Array.unsafe_set t.original_at i now;
      original_bit lor outstanding_bit
    end
  in
  Bytes.unsafe_set t.state i (Char.unsafe_chr st);
  Float.Array.unsafe_set t.sent_at i now;
  Float.Array.unsafe_set t.cwnd_send i (fget t cwnd_);
  t.out_count <- t.out_count + 1;
  so_push t ~seq ~time:now;
  if retx then Tcp.Action_buffer.send_retx buf ~seq
  else Tcp.Action_buffer.send buf ~seq

(* Smallest to-be-sent seq, or -1: advance [pending_min] past
   non-members (it is a lower bound on every member). Recursion over an
   int argument, not a [ref] — the cell would be a per-call
   allocation on the flush path. *)
let rec pending_scan t seq =
  if get_state t seq land pending_bit = 0 then pending_scan t (seq + 1)
  else seq

let pending_min_elt t =
  if t.pending_count = 0 then -1
  else begin
    let lo = t.pending_min in
    let una = t.snd_una in
    let seq = pending_scan t (if lo > una then lo else una) in
    t.pending_min <- seq;
    seq
  end

(* flush-cwnd (Table 1): send the smallest pending sequence number while
   the window exceeds the number of outstanding packets — unless the
   extreme-loss state is delaying transmission.

   Top-level recursion, not an inner [let rec loop]: the inner closure
   would capture [t]/[now]/[buf] and be allocated on every ACK. The
   window clamp is recomputed per iteration; it is two unboxed reads
   and a compare. *)
let rec flush t ~now buf =
  if now < fget t backoff_until_ then ()
  else begin
    let window =
      let c = fget t cwnd_ in
      let m = t.config.Tcp.Config.max_cwnd in
      if c < m then c else m
    in
    if window <= float_of_int t.out_count then ()
    else begin
      let pending = pending_min_elt t in
      if pending >= 0 then begin
        let i = slot t pending in
        set_state t pending
          (Char.code (Bytes.unsafe_get t.state i) land lnot pending_bit);
        t.pending_count <- t.pending_count - 1;
        send t ~now ~seq:pending ~retx:true buf;
        flush t ~now buf
      end
      else if all_new_data_sent t || t.next_new >= t.rwnd_limit then ()
      else begin
        let seq = t.next_new in
        ensure_span t ~span:(seq + 1 - t.snd_una);
        t.next_new <- seq + 1;
        send t ~now ~seq ~retx:false buf;
        flush t ~now buf
      end
    end
  end

(* The timer is armed after flushing, against the post-flush to-be-ack
   list (the buffer preserves emission order). *)
let flush_then_arm t ~now buf =
  flush t ~now buf;
  arm_drop_timer t ~now buf

let start t ~now buf = flush_then_arm t ~now buf

(* Window update on an acknowledged packet (Table 1, lines 18-22). *)
let grow_window t =
  let cwnd = fget t cwnd_ in
  let cwnd =
    match t.mode with
    | Slow_start ->
      if cwnd +. 1. <= fget t ssthr_ then cwnd +. 1.
      else begin
        t.mode <- Cong_avoid;
        cwnd +. (1. /. cwnd)
      end
    | Cong_avoid -> cwnd +. (1. /. cwnd)
  in
  let m = t.config.Tcp.Config.max_cwnd in
  fset t cwnd_ (if cwnd < m then cwnd else m)

let remove_from_memorize t =
  t.memorize_size <- t.memorize_size - 1;
  if t.memorize_size = 0 then begin
    t.cburst <- 0;
    t.burst_reacted <- false
  end

(* An informative ACK ends the extreme-loss episode: Table 1 recomputes
   [mxrtt := beta * ewrtt] on every acknowledgement, which supersedes
   the override. The transmission delay that is already scheduled
   ([backoff_until]) is left to run out, like a coarse timeout would. *)
let leave_extreme t =
  if t.extreme then begin
    t.extreme <- false;
    fset t mxrtt_override_ 0.
  end

(* "ACK received for packet n" (Table 1): remove [n] from every list,
   updating the window for a packet confirmed delivered. If [n] had been
   declared dropped, the drop was really reordering: cancel the pending
   retransmission. Zeroing the state byte also drops the
   first-transmission record and keeps the ring slot clean for reuse. *)
let ack_one t seq =
  if in_span t seq then begin
    let st = get_state t seq in
    set_state t seq 0;
    if st land outstanding_bit <> 0 then begin
      if st land memorize_bit <> 0 then remove_from_memorize t;
      t.out_count <- t.out_count - 1;
      grow_window t
    end
    else if st land pending_bit <> 0 then begin
      t.pending_count <- t.pending_count - 1;
      t.n_false_drops <- t.n_false_drops + 1;
      grow_window t
    end
  end

(* One RTT sample per ACK: [now - time(n)] for the packet [n] whose
   arrival generated this ACK (identified by [for_seq]; [for_retx]
   plays the timestamp echo, disambiguating original from
   retransmission as in the paper's footnote on Eifel). Packets covered
   by a cumulative jump contribute no sample — their "RTT" would
   include the time the receiver spent holding them behind a hole. An
   ACK generated by the original transmission is always timed against
   the first send: this is what captures the true (possibly huge)
   round-trip of a reordered packet even after the sender has
   needlessly retransmitted it, and what keeps needless retransmissions
   from masking large samples and starving the envelope. *)
let sample_rtt t ~now (ack : Tcp.Types.ack) =
  let for_seq = ack.Tcp.Types.for_seq in
  if in_span t for_seq then begin
    let st = get_state t for_seq in
    if not ack.Tcp.Types.for_retx then begin
      if st land original_bit <> 0 then
        Ewrtt.on_sample t.envelope ~cwnd:(fget t cwnd_)
          ~sample:(now -. Float.Array.unsafe_get t.original_at (slot t for_seq))
    end
    else if st land (outstanding_bit lor pending_bit) <> 0 then
      (* Outstanding: last send time. Declared dropped: the send time
         recorded at the drop (the [sent_at] slot is preserved across
         the transition). *)
      Ewrtt.on_sample t.envelope ~cwnd:(fget t cwnd_)
        ~sample:(now -. Float.Array.unsafe_get t.sent_at (slot t for_seq))
  end

let on_ack t ~now (ack : Tcp.Types.ack) buf =
  if finished t then ()
  else begin
    let lim =
      if ack.Tcp.Types.rwnd = Tcp.Types.rwnd_unbounded then max_int
      else ack.Tcp.Types.next + ack.Tcp.Types.rwnd
    in
    (* Monotone: a reordered ACK must not shrink the window. *)
    let win_update = lim > t.rwnd_limit in
    if win_update then t.rwnd_limit <- lim;
    let advanced = ack.Tcp.Types.next > t.snd_una in
    let arrived_new =
      in_span t ack.Tcp.Types.for_seq
      && get_state t ack.Tcp.Types.for_seq
         land (outstanding_bit lor pending_bit)
         <> 0
    in
    if advanced || arrived_new then begin
      sample_rtt t ~now ack;
      leave_extreme t;
      (* The generating packet is acknowledged individually — this is
         what keeps packets buffered behind a hole from ever looking
         dropped — and a cumulative advance acknowledges everything
         below it. *)
      ack_one t ack.Tcp.Types.for_seq;
      if advanced then begin
        for seq = t.snd_una to ack.Tcp.Types.next - 1 do
          ack_one t seq
        done;
        t.snd_una <- ack.Tcp.Types.next
      end;
      if finished t then begin
        Tcp.Action_buffer.cancel_timer buf ~key:drop_timer_key;
        Tcp.Action_buffer.cancel_timer buf ~key:backoff_timer_key
      end
      else flush_then_arm t ~now buf
    end
    else if win_update then
      (* Window reopened without acknowledging anything new (receiver
         window update): resume sending. *)
      flush_then_arm t ~now buf
    (* A pure duplicate carrying no new per-packet information: TCP-PR
       ignores it. *)
  end

(* Extreme-loss reaction (Section 3.2): collapse to one packet, make the
   drop threshold at least one second, and hold transmission for one
   threshold period — emulating NewReno/SACK's coarse timeout. *)
let enter_extreme t ~now =
  t.n_extreme_resets <- t.n_extreme_resets + 1;
  t.extreme <- true;
  fset t cwnd_ 1.;
  t.mode <- Slow_start;
  (* The burst that triggered the reset has been reacted to. *)
  t.cburst <- 0;
  t.burst_reacted <- true;
  let override = Float.max (mxrtt t) 1. in
  fset t mxrtt_override_ override;
  fset t backoff_until_ (now +. override)

let double_mxrtt t ~now =
  t.n_mxrtt_doublings <- t.n_mxrtt_doublings + 1;
  let override = Float.min (mxrtt t *. 2.) t.config.Tcp.Config.max_rto in
  fset t mxrtt_override_ override;
  fset t backoff_until_ (now +. override)

(* Drop detected for packet [seq] (Table 1, lines 5-12). The caller
   guarantees [seq] is outstanding; its [sent_at] slot is preserved as
   the drop time (feeding a late false-drop RTT sample). *)
let declare_dropped t ~now seq =
  t.n_drops_detected <- t.n_drops_detected + 1;
  let st = get_state t seq in
  set_state t seq (st land lnot (outstanding_bit lor memorize_bit) lor pending_bit);
  t.out_count <- t.out_count - 1;
  t.pending_count <- t.pending_count + 1;
  if seq < t.pending_min then t.pending_min <- seq;
  if st land memorize_bit <> 0 then begin
    (* The sender already reacted to this congestion event; count the
       burst and watch for extreme losses. The reset fires only while
       the window is still open — once collapsed to one packet, further
       burst drops are already accounted for. *)
    t.memorize_size <- t.memorize_size - 1;
    t.cburst <- t.cburst + 1;
    if
      float_of_int t.cburst > (fget t cwnd_ /. 2.) +. 1.
      && (not t.burst_reacted)
      && fget t cwnd_ > 1.
    then enter_extreme t ~now;
    if t.memorize_size = 0 then begin
      t.cburst <- 0;
      t.burst_reacted <- false
    end
  end
  else if t.extreme && fget t cwnd_ <= 1. then
    (* New drop while collapsed by extreme losses: exponential back-off
       of the threshold instead of another window halving. *)
    double_mxrtt t ~now
  else begin
    let basis =
      if t.config.Tcp.Config.pr_snapshot_cwnd then
        Float.Array.unsafe_get t.cwnd_send (slot t seq)
      else fget t cwnd_
    in
    fset t cwnd_ (Float.max (basis /. 2.) 1.);
    fset t ssthr_ (fget t cwnd_);
    t.mode <- Cong_avoid;
    if t.config.Tcp.Config.pr_memorize then begin
      (* Snapshot the packets outstanding at the halving; their later
         drops belong to this same congestion event. [seq] itself is
         already out of to-be-ack and is not flagged. *)
      for s = t.snd_una to t.next_new - 1 do
        let st = get_state t s in
        if st land outstanding_bit <> 0 && st land memorize_bit = 0 then begin
          set_state t s (st lor memorize_bit);
          t.memorize_size <- t.memorize_size + 1
        end
      done;
      t.cburst <- 0
    end
  end

let check_drops t ~now buf =
  (* Walk [send_order] from the oldest outstanding send: everything past
     its deadline is declared dropped, and the first live entry inside
     the deadline stops the scan (later sends expire later; mxrtt is
     re-read per step because an extreme back-off can change it
     mid-scan). The [1e-12] slack is not inert: without it some runs
     declare a drop at a different event (one benchmark fingerprint
     moves). It goes when sender times become integer nanoseconds. *)
  let continue = ref true in
  while !continue do
    drop_stale_heads t;
    if t.so_len > 0 && so_head_time t +. mxrtt t <= now +. 1e-12 then begin
      let seq = so_head_seq t in
      so_pop t;
      declare_dropped t ~now seq
    end
    else continue := false
  done;
  if now < fget t backoff_until_ then
    Tcp.Action_buffer.set_timer buf ~key:backoff_timer_key
      ~delay:(fget t backoff_until_ -. now);
  flush_then_arm t ~now buf

let on_timer t ~now ~key buf =
  if finished t then ()
  else if key = drop_timer_key then check_drops t ~now buf
  else if key = backoff_timer_key then begin
    (* The back-off is over when its timer fires. The timer fires at
       its ns-rounded deadline, but [now] read back in float seconds
       can sit one ulp below [backoff_until]; [flush] would then send
       nothing and no timer would be left to wake the sender. *)
    if now < fget t backoff_until_ then fset t backoff_until_ now;
    flush_then_arm t ~now buf
  end
