(** Reno/NewReno congestion control engine.

    Implements slow start, congestion avoidance, fast retransmit on the
    [Config.dupthresh]-th duplicate ACK, fast recovery with NewReno
    partial-ACK handling, RFC 2988 retransmission timeouts with
    exponential back-off, Karn's rule for RTT sampling, and RFC 3042
    limited transmit of at most two new segments before recovery. The
    [Tcp.Tahoe], [Tcp.Reno] and [Tcp.Newreno] senders are this engine
    with one {!recovery_style} each. The time-delayed fast recovery of the
    paper's Fig. 6 is [Tcp.Td_fr], on the SACK engine. *)

(** Reaction to duplicate-ACK loss inference: [Tahoe] retransmits and
    slow-starts from one; [Reno] runs fast recovery but ends it at the
    first partial ACK; [Newreno] repairs every hole through partial-ACK
    retransmissions. *)
type recovery_style =
  | Tahoe
  | Reno
  | Newreno

type t

val create : style:recovery_style -> Config.t -> t

(** [reset t config] returns [t] to the state [create ~style config]
    builds with [t]'s style, keeping the grown tables (see
    {!Sender.S.reset}). *)
val reset : t -> Config.t -> unit

val start : t -> now:float -> Action_buffer.t -> unit

val on_ack : t -> now:float -> Types.ack -> Action_buffer.t -> unit

val on_timer : t -> now:float -> key:int -> Action_buffer.t -> unit

val cwnd : t -> float

val ssthresh : t -> float

val acked : t -> int

val in_recovery : t -> bool

val finished : t -> bool

val metrics : t -> (string * float) list
