(** Per-connection configuration shared by every sender variant.

    One record carries every knob some experiment varies; each variant
    reads the fields it understands. Defaults reproduce the paper's
    setup: TCP-PR [alpha = 0.995] and [beta = 3.0], RFC 2988 timers
    with a 1-second floor. The parts of that setup no experiment
    varies are the constants below the record. *)

type t = {
  initial_cwnd : float;  (** congestion window at start, in segments *)
  max_cwnd : float;  (** receiver-window cap, in segments *)
  delayed_ack : bool;
      (** RFC 1122 delayed ACKs: acknowledge every second in-order
          segment (out-of-order and duplicate arrivals are always acked
          immediately). Off by default, matching the paper's ns-2
          sinks. *)
  total_segments : int option;
      (** [None] = unbounded (long-lived FTP); [Some n] = transfer of
          exactly [n] segments *)
  (* --- retransmission timer (RFC 2988 / Jacobson) --- *)
  initial_rto : float;
  min_rto : float;
  max_rto : float;
  timer_granularity : float;  (** coarse-timer rounding; 0 = exact *)
  (* --- TCP-PR --- *)
  pr_alpha : float;  (** per-RTT memory factor, 0 < alpha < 1 *)
  pr_beta : float;  (** mxrtt = beta * ewrtt, beta > 1 *)
  pr_memorize : bool;  (** ablation: disable the memorize list *)
  pr_snapshot_cwnd : bool;
      (** ablation: halve cwnd-at-send (paper) vs. current cwnd *)
  (* --- host-stack realism layer (strictly opt-in) --- *)
  rcv_buf_segments : int option;
      (** [None] (default) = unbounded receive socket buffer, the
          paper's idealised sink: acknowledgements advertise [max_int]
          and the sender-side rwnd clamp never binds. [Some n] = finite
          buffer of [n] segments ([n * mss] bytes) with Linux
          [tcp_rmem]-style memory accounting. *)
  rcv_buf_max_segments : int;
      (** autotuning growth cap, in segments (Linux [tcp_rmem\[2\]]) *)
  rcv_autotune : bool;
      (** DRS-style receive-buffer autotuning: grow the buffer toward
          2x the bytes delivered per RTT, never shrinking, capped by
          [rcv_buf_max_segments]. Requires a finite [rcv_buf_segments]. *)
  rcv_app_rate : float option;
      (** [None] (default) = the application reads in-order data the
          instant it arrives (the seed behaviour); [Some r] = the
          application drains [r] segments per second, so in-order data
          occupies the buffer until read — the source of buffer
          pressure and zero-window stalls. *)
}

val default : t

(** Data segment wire size in bytes (1000). *)
val mss : int

(** Duplicate-ACK threshold for fast retransmit (3); the SACK senders'
    adaptive dupthresh starts here. *)
val dupthresh : int

(** Slow-start threshold at start ([infinity]). *)
val initial_ssthresh : float

(** True when the finite receive buffer (and with it the whole realism
    layer) is switched on. *)
val hoststack_enabled : t -> bool

(** [validate t] raises [Invalid_argument] on out-of-range fields. *)
val validate : t -> unit
