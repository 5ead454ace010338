(* What happens once loss is inferred from duplicate ACKs:
   - [Tahoe]: retransmit and fall back to slow start (cwnd = 1);
   - [Reno]: fast recovery, but a partial ACK ends it (one loss
     repaired per recovery episode; further holes wait for new
     duplicates or the RTO);
   - [Newreno]: fast recovery with partial-ACK retransmission. *)
type recovery_style =
  | Tahoe
  | Reno
  | Newreno

(* RFC 3042 limited transmit: at most two new segments on the
   duplicate ACKs that precede recovery. *)
let limited_transmit_segments = 2

(* The only timer. It is re-armed by replacement (same key), so a fired
   timer is always the live one. *)
let rto_key = 0

type t = {
  mutable config : Config.t;
  style : recovery_style;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable snd_una : int;
  mutable snd_next : int;
  mutable dup_count : int;
  mutable in_recovery : bool;
  mutable recover : int;
  (* Right edge of the receiver's advertised window: new data may be
     sent only below this. [max_int] while the peer advertises an
     unbounded window (finite receive buffer disabled). *)
  mutable rwnd_limit : int;
  rto : Rto.t;
  send_times : (int, float) Hashtbl.t;
  retransmitted : (int, unit) Hashtbl.t;
  (* metrics *)
  mutable n_sent : int;
  mutable n_retx : int;
  mutable n_fast_retx : int;
  mutable n_timeouts : int;
}

(* Every initial value is written here; [create] allocates, then
   resets. The tables keep their grown size. *)
let reset t config =
  Config.validate config;
  t.config <- config;
  t.cwnd <- config.Config.initial_cwnd;
  t.ssthresh <- Config.initial_ssthresh;
  t.snd_una <- 0;
  t.snd_next <- 0;
  t.dup_count <- 0;
  t.in_recovery <- false;
  t.recover <- -1;
  (* The sender shares [Config.t] with the receiver, so it knows the
     initial window without a handshake. *)
  t.rwnd_limit <-
    (match config.Config.rcv_buf_segments with
    | Some n -> n
    | None -> max_int);
  Rto.reset t.rto config;
  Hashtbl.clear t.send_times;
  Hashtbl.clear t.retransmitted;
  t.n_sent <- 0;
  t.n_retx <- 0;
  t.n_fast_retx <- 0;
  t.n_timeouts <- 0

let create ~style config =
  let t =
    { config;
      style;
      cwnd = 0.;
      ssthresh = 0.;
      snd_una = 0;
      snd_next = 0;
      dup_count = 0;
      in_recovery = false;
      recover = 0;
      rwnd_limit = 0;
      rto = Rto.create config;
      send_times = Hashtbl.create 256;
      retransmitted = Hashtbl.create 64;
      n_sent = 0;
      n_retx = 0;
      n_fast_retx = 0;
      n_timeouts = 0 }
  in
  reset t config;
  t

let cwnd t = t.cwnd

let ssthresh t = t.ssthresh

let acked t = t.snd_una

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

let metrics t =
  [ ("sent", float_of_int t.n_sent);
    ("retransmits", float_of_int t.n_retx);
    ("fast_retransmits", float_of_int t.n_fast_retx);
    ("timeouts", float_of_int t.n_timeouts);
    ("cwnd", t.cwnd);
    ("ssthresh", t.ssthresh);
    (* -1 before the first valid sample, mirroring [Rto.srtt]'s None;
       the check monitors watch this for Karn-rule violations. *)
    ("srtt", Option.value (Rto.srtt t.rto) ~default:(-1.)) ]

let arm_rto t buf =
  Action_buffer.set_timer_ns buf ~key:rto_key ~delay:(Rto.current_ns t.rto)

let send t ~now ~seq ~retx buf =
  t.n_sent <- t.n_sent + 1;
  if retx then begin
    t.n_retx <- t.n_retx + 1;
    Hashtbl.replace t.retransmitted seq ()
  end;
  Hashtbl.replace t.send_times seq now;
  if retx then Action_buffer.send_retx buf ~seq
  else Action_buffer.send buf ~seq

(* Effective window (in whole segments): cwnd, plus one segment per
   duplicate ACK under RFC 3042 limited transmit (at most
   [limited_transmit_segments]) while not yet in recovery. Inside
   recovery, cwnd itself is inflated per duplicate. Returns an int so
   the per-ACK send loop never boxes a float return. *)
let effective_window t =
  let c = t.cwnd in
  let m = t.config.Config.max_cwnd in
  let base = if c < m then c else m in
  let allowance =
    if (not t.in_recovery) && t.dup_count > 0 then
      min t.dup_count limited_transmit_segments
    else 0
  in
  int_of_float base + allowance

(* Top-level recursion, not an inner [let rec loop]: the inner closure
   would capture [t]/[now]/[buf] and be allocated on every ACK. *)
let rec send_new_data t ~now buf =
  let window = effective_window t in
  if flight t >= window || all_data_sent t || t.snd_next >= t.rwnd_limit then
    ()
  else begin
    let seq = t.snd_next in
    t.snd_next <- seq + 1;
    send t ~now ~seq ~retx:false buf;
    send_new_data t ~now buf
  end

let start t ~now buf =
  let mark = Action_buffer.length buf in
  send_new_data t ~now buf;
  if Action_buffer.length buf > mark then arm_rto t buf

(* One store per call: [cwnd] is a mutable float field of a mixed
   record, so every assignment boxes — growing then clamping in two
   stores costs two boxes per in-order ACK. *)
let grow_window t =
  let c = t.cwnd in
  let c = if c < t.ssthresh then c +. 1. else c +. (1. /. c) in
  let m = t.config.Config.max_cwnd in
  t.cwnd <- (if c < m then c else m)

let enter_recovery t ~now buf =
  t.n_fast_retx <- t.n_fast_retx + 1;
  let effective_flight = Float.min (float_of_int (flight t)) t.cwnd in
  t.ssthresh <- Float.max (effective_flight /. 2.) 2.;
  t.recover <- t.snd_next - 1;
  (match t.style with
  | Tahoe ->
    (* No fast recovery: retransmit and slow-start from one. *)
    t.in_recovery <- false;
    t.dup_count <- 0;
    t.cwnd <- 1.
  | Reno | Newreno ->
    t.in_recovery <- true;
    t.cwnd <- t.ssthresh +. float_of_int t.dup_count);
  send t ~now ~seq:t.snd_una ~retx:true buf;
  arm_rto t buf

let on_dup_ack t ~now buf =
  t.dup_count <- t.dup_count + 1;
  if t.in_recovery then begin
    (* Window inflation: each duplicate signals a departure. *)
    t.cwnd <- Float.min (t.cwnd +. 1.) t.config.Config.max_cwnd;
    send_new_data t ~now buf
  end
  else begin
    if t.dup_count = Config.dupthresh && t.snd_una > t.recover then
      enter_recovery t ~now buf;
    send_new_data t ~now buf
  end

(* Karn: sample only if the newly covered leading segment was never
   retransmitted. *)
let maybe_sample_rtt t ~now ~ack_next =
  let seq = ack_next - 1 in
  if not (Hashtbl.mem t.retransmitted seq) then begin
    (* [find] + exception, not [find_opt]: the key is present on every
       in-order ACK and the [Some] wrapper would be a per-ACK
       allocation; [Not_found] is a constant constructor. *)
    match Hashtbl.find t.send_times seq with
    | sent_at -> Rto.sample_between t.rto ~sent_at ~now
    | exception Not_found -> ()
  end

let forget_below t bound =
  for seq = t.snd_una to bound - 1 do
    Hashtbl.remove t.send_times seq;
    Hashtbl.remove t.retransmitted seq
  done

let on_new_ack t ~now ~ack_next buf =
  maybe_sample_rtt t ~now ~ack_next;
  Rto.reset_backoff t.rto;
  let newly = ack_next - t.snd_una in
  if t.in_recovery then begin
    if ack_next > t.recover then begin
      (* Full acknowledgement: deflate and leave recovery. *)
      t.in_recovery <- false;
      t.cwnd <- t.ssthresh;
      t.dup_count <- 0
    end
    else begin
      match t.style with
      | Newreno ->
        (* Partial acknowledgement: retransmit the next hole, deflate
           by the amount acknowledged, stay in recovery. *)
        t.cwnd <- Float.max (t.cwnd -. float_of_int newly +. 1.) 1.;
        send t ~now ~seq:ack_next ~retx:true buf
      | Reno | Tahoe ->
        (* Classic Reno: the first new ACK ends recovery; remaining
           holes must re-trigger fast retransmit or time out. *)
        t.in_recovery <- false;
        t.cwnd <- t.ssthresh;
        t.dup_count <- 0
    end
  end
  else begin
    t.dup_count <- 0;
    grow_window t
  end;
  forget_below t ack_next;
  t.snd_una <- ack_next;
  send_new_data t ~now buf;
  if flight t > 0 || not (all_data_sent t) then arm_rto t buf
  else Action_buffer.cancel_timer buf ~key:rto_key

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
    if ack.Types.next > t.snd_una then
      on_new_ack t ~now ~ack_next:ack.Types.next buf
    else if ack.Types.next = t.snd_una && flight t > 0 && not win_update then
      (* RFC 5681: an ACK advertising a larger window is not a
         duplicate. *)
      on_dup_ack t ~now buf
    else if win_update then begin
      (* Window reopened without covering new data (receiver window
         update): resume sending. *)
      let mark = Action_buffer.length buf in
      send_new_data t ~now buf;
      if Action_buffer.length buf > mark then arm_rto t buf
    end
    (* else: stale reordered ACK *)
  end

let on_rto t ~now buf =
  if flight t = 0 && all_data_sent t then ()
  else if flight t = 0 && t.snd_next >= t.rwnd_limit then
    (* Zero-window blocked: nothing is in flight to retransmit and the
       peer has no room. This expiry is a persist probe slot, not a
       loss: keep the timer running (it guarantees liveness if the
       window-update ACK is lost) without counting a timeout or backing
       off. *)
    arm_rto t buf
  else begin
    t.n_timeouts <- t.n_timeouts + 1;
    (* FlightSize is bounded by cwnd so a frozen cumulative ACK cannot
       inflate the next slow-start threshold. *)
    let effective_flight = Float.min (float_of_int (flight t)) t.cwnd in
    t.ssthresh <- Float.max (effective_flight /. 2.) 2.;
    t.cwnd <- 1.;
    t.dup_count <- 0;
    t.in_recovery <- false;
    t.recover <- t.snd_next - 1;
    Rto.backoff t.rto;
    if flight t > 0 then begin
      (* Go-back-N (ns-2 Reno): rewind transmission to the first
         unacknowledged segment. Without a scoreboard the sender has
         no other way to locate holes once nothing is in flight. *)
      send t ~now ~seq:t.snd_una ~retx:true buf;
      t.snd_next <- t.snd_una + 1
    end
    else send_new_data t ~now buf;
    arm_rto t buf
  end

let on_timer t ~now ~key buf = if key = rto_key then on_rto t ~now buf
