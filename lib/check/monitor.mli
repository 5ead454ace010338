(** Conformance monitors over the {!Tcp.Probe} event stream.

    A monitor is a passive observer: it receives every probe event of a
    run and records violations of a protocol invariant. Monitors never
    influence the simulation — arming them must not change a single
    event — so a violation is always a property of the system under
    test, not of the oracle.

    Monitors are keyed per flow internally: one monitor instance can
    watch a whole multi-flow run. *)

type violation = {
  monitor : string;  (** name of the monitor that fired *)
  time : float;  (** simulated time of the offending event *)
  flow : int;
  message : string;  (** human-readable description *)
}

val pp_violation : Format.formatter -> violation -> unit

type t

val name : t -> string

(** [on_event t event] feeds one probe event to the monitor. *)
val on_event : t -> Tcp.Probe.event -> unit

(** Violations recorded so far, in detection order. At most
    {!max_violations} are kept per monitor (a counter keeps the true
    total); see {!violation_count}. *)
val violations : t -> violation list

val violation_count : t -> int

val max_violations : int

(** {1 Monitors} *)

(** Reliable exactly-once in-order delivery, checked against a
    reference receive-buffer model rebuilt from the event stream: the
    receiver's [rcv_next] must evolve exactly as the oracle's, a
    segment may be delivered to the application at most once, and the
    duplicate flag must be reported iff the oracle has seen the segment
    before. *)
val delivery : unit -> t

(** Sequence-number and acknowledgement conservation: no data segment
    arrives at the sink more often than the source sent it, ACK serials
    arriving at the source were emitted at the sink (at most once
    each), and sink serials increase strictly. The network may lose,
    delay and reorder, but never forge or duplicate. *)
val conservation : unit -> t

(** Congestion-window sanity: after every sender transition the window
    is finite, at least one segment, and within a small slack of
    [max_cwnd] (fast-recovery inflation can exceed the clamp
    transiently, so the bound is [2 * max_cwnd + 8]). *)
val cwnd_sanity : config:Tcp.Config.t -> t

(** RFC 2988/6298 retransmission-timer discipline for the cumulative-ACK
    variants: every arming of timer key 0 lies within
    [[min_rto, max_rto]], and Karn's rule holds — [srtt] may only change
    on a cumulative advance whose newly covered leading segment was
    never retransmitted, and never on a timer event. Not applicable to
    TCP-PR, whose key 0 is the drop timer (armed at [mxrtt] remaining,
    which has no RTO floor). *)
val rto_sanity : config:Tcp.Config.t -> t

(** TCP-PR-specific properties (Table 1 of the paper):

    - no duplicate-ACK-triggered retransmission, ever: every
      retransmission must be covered by an earlier timer-declared drop
      ([drops_detected - false_drops - retransmissions] never goes
      negative), and [drops_detected] must not increase during ACK
      processing;
    - envelope soundness under the 2-iteration Newton approximation:
      [mxrtt >= beta * ewrtt] (up to the [max_rto] cap) and
      [mxrtt >= Tcp_pr.min_mxrtt];
    - [ewrtt] decays by at most the factor [alpha] per acknowledgement
      (Newton from x = 1 over-approximates [alpha^(1/cwnd)] from above,
      so one sample can never shrink the envelope faster than [alpha]);
    - multiplicative decrease: the first drop of a connection at most
      halves the window (later drops may be memorized or use the
      at-send snapshot, where the pre-event window is not the basis). *)
val tcp_pr : config:Tcp.Config.t -> t

(** Advertised-window conservation (finite receive buffer): the right
    edge [next + rwnd] of sink-emitted acknowledgements is tracked
    monotonically; no data segment may ever be sent at or beyond the
    highest right edge advertised, every advertised window must fit the
    configured buffer cap ([rcv_buf_max_segments]), and no window is
    negative. Vacuous while every acknowledgement carries
    {!Tcp.Types.rwnd_unbounded}. *)
val rwnd_conservation : config:Tcp.Config.t -> t

(** Zero-window liveness: a flow whose last finite advertisement was a
    zero window — never reopened by a later acknowledgement — is
    reported at the end of the run. Applies only when an application
    reader ([rcv_app_rate]) is configured; without one, a terminal zero
    window is legitimate. *)
val zero_window_liveness : config:Tcp.Config.t -> t

(** [for_variant ~variant ~config] selects the monitor suite for a
    sender variant by name: {!delivery}, {!conservation} and
    {!cwnd_sanity} always; {!tcp_pr} for TCP-PR; {!rto_sanity} for
    everyone else; {!rwnd_conservation} and {!zero_window_liveness}
    additionally when the host-stack layer is enabled
    ({!Tcp.Config.hoststack_enabled}). *)
val for_variant : variant:string -> config:Tcp.Config.t -> t list

(** [arm probe monitors] subscribes every monitor to the tap. *)
val arm : Tcp.Probe.t -> t list -> unit

(** All violations of a suite, in monitor order. *)
val all_violations : t list -> violation list
