type t = {
  initial_cwnd : float;
  max_cwnd : float;
  delayed_ack : bool;
  total_segments : int option;
  initial_rto : float;
  min_rto : float;
  max_rto : float;
  timer_granularity : float;
  pr_alpha : float;
  pr_beta : float;
  pr_memorize : bool;
  pr_snapshot_cwnd : bool;
  rcv_buf_segments : int option;
  rcv_buf_max_segments : int;
  rcv_autotune : bool;
  rcv_app_rate : float option;
}

let default =
  { initial_cwnd = 1.;
    max_cwnd = 100_000.;
    delayed_ack = false;
    total_segments = None;
    initial_rto = 3.;
    min_rto = 1.;
    max_rto = 64.;
    timer_granularity = 0.;
    pr_alpha = 0.995;
    pr_beta = 3.0;
    pr_memorize = true;
    pr_snapshot_cwnd = true;
    rcv_buf_segments = None;
    rcv_buf_max_segments = 1_024;
    rcv_autotune = false;
    rcv_app_rate = None }

let mss = 1000

let dupthresh = 3

let initial_ssthresh = infinity

(* The host-stack realism layer is strictly opt-in: with the default
   [rcv_buf_segments = None] the receive buffer is unbounded, every
   acknowledgement advertises [max_int] and no sender clamp ever binds,
   so traces are byte-identical to a build without the layer. *)
let hoststack_enabled t = t.rcv_buf_segments <> None

let validate t =
  let check cond message = if not cond then invalid_arg ("Config: " ^ message) in
  check (t.initial_cwnd >= 1.) "initial_cwnd must be >= 1";
  check (t.max_cwnd >= 1.) "max_cwnd must be >= 1";
  check (t.initial_rto > 0.) "initial_rto must be positive";
  check (t.min_rto >= 0.) "min_rto must be non-negative";
  check (t.max_rto >= t.min_rto) "max_rto must be >= min_rto";
  check (t.timer_granularity >= 0.) "timer_granularity must be non-negative";
  check (t.pr_alpha > 0. && t.pr_alpha < 1.) "pr_alpha must be in (0, 1)";
  check (t.pr_beta >= 1.) "pr_beta must be >= 1";
  (match t.rcv_buf_segments with
  | Some n ->
    check (n >= 1) "rcv_buf_segments must be >= 1";
    check
      (t.rcv_buf_max_segments >= n)
      "rcv_buf_max_segments must be >= rcv_buf_segments"
  | None ->
    check (not t.rcv_autotune) "rcv_autotune requires a finite rcv_buf";
    check (t.rcv_app_rate = None) "rcv_app_rate requires a finite rcv_buf");
  (match t.rcv_app_rate with
  | Some r -> check (r > 0.) "rcv_app_rate must be positive"
  | None -> ());
  match t.total_segments with
  | Some n -> check (n > 0) "total_segments must be positive"
  | None -> ()
