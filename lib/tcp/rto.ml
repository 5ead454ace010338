(* Hot float state lives in a flat [floatarray]: [sample] runs once per
   ACK and [backoff]/[reset_backoff] per timeout/delivery, and writing a
   float into a mixed record boxes it (2 words per write). *)
let srtt_ = 0

let rttvar_ = 1

let multiplier_ = 2

type t = {
  mutable config : Config.t;
  f : floatarray;
  mutable has_sample : bool;
}

let get t i = Float.Array.unsafe_get t.f i

let set t i v = Float.Array.unsafe_set t.f i v

let reset t config =
  t.config <- config;
  set t srtt_ 0.;
  set t rttvar_ 0.;
  set t multiplier_ 1.;
  t.has_sample <- false

let create config =
  let t = { config; f = Float.Array.make 3 0.; has_sample = false } in
  reset t config;
  t

let sample t rtt =
  assert (rtt >= 0.);
  if not t.has_sample then begin
    set t srtt_ rtt;
    set t rttvar_ (rtt /. 2.);
    t.has_sample <- true
  end
  else begin
    let srtt = get t srtt_ in
    set t rttvar_ ((0.75 *. get t rttvar_) +. (0.25 *. Float.abs (srtt -. rtt)));
    set t srtt_ ((0.875 *. srtt) +. (0.125 *. rtt))
  end

(* [sample] with the subtraction pushed inside: both operands are
   already boxed at every call site (an event timestamp and a stored
   send time), so taking them as arguments avoids the fresh float box
   a caller-side [now -. sent_at] would allocate per ACK. *)
let sample_between t ~sent_at ~now = sample t (now -. sent_at)

(* Comparisons are written out as [if]s rather than [Float.min]/
   [Float.max]: those are ordinary functions, and without flambda each
   call boxes its unboxed operand and its result — this runs once per
   ACK on the RTO re-arm path. *)
let[@inline] base t =
  if not t.has_sample then t.config.Config.initial_rto
  else begin
    let g = t.config.Config.timer_granularity in
    let v4 = 4. *. get t rttvar_ in
    get t srtt_ +. (if g > v4 then g else v4)
  end

let[@inline] current t =
  let rto = base t *. get t multiplier_ in
  let lo = t.config.Config.min_rto in
  let rto = if rto < lo then lo else rto in
  let hi = t.config.Config.max_rto in
  if rto > hi then hi else rto

(* The RTO as an integer-nanosecond delay, for [Action_buffer.
   set_timer_ns]: the float never escapes this function, so the per-ACK
   re-arm allocates nothing. The conversion replicates
   [Sim.Time.of_sec_delay] (same horizon, same ceiling) instead of
   calling it — the cross-module float argument would box per call. *)
let current_ns t =
  let s = current t in
  if s >= Sim.Time.horizon_sec then Sim.Time.never
  else int_of_float (Float.ceil (s *. 1e9))

(* Back off by doubling the *clamped* RTO, not the raw multiplier.
   Doubling the multiplier alone misbehaves at both clamps: while the
   floor is active (min_rto > base, e.g. low-RTT paths at startup) the
   multiplier inflates for several timeouts with no effect on the armed
   RTO, and then overshoots in one jump; and the multiplier itself was
   never bounded. Solving [clamp (base * m') = min (2 * rto, max_rto)]
   for [m'] keeps the armed RTO exactly doubling per timeout, monotone,
   and the multiplier bounded by [max_rto / base]. *)
let backoff t =
  let target = Float.min (2. *. current t) t.config.Config.max_rto in
  (* [base] is positive in any validated config ([initial_rto > 0] and
     RTT samples are nonnegative); the floor only guards the degenerate
     all-zero case against dividing by zero. *)
  set t multiplier_ (target /. Float.max (base t) 1e-12)

let reset_backoff t = set t multiplier_ 1.

let srtt t = if t.has_sample then Some (get t srtt_) else None

(* Option-free variant for per-ACK paths (RACK's reordering window,
   TCP-DOOR's freeze horizon): [srtt] allocates a [Some] per call. *)
let srtt_or t ~default = if t.has_sample then get t srtt_ else default

let rttvar t = if t.has_sample then Some (get t rttvar_) else None
