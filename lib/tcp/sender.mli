(** Uniform interface implemented by every TCP sender variant.

    A sender is a state machine driven by three events — connection
    start, ACK arrival, timer expiry — each writing the {!Action.t}s to
    execute into the {!Action_buffer.t} passed by the caller (appending
    in execution order; handlers never read or clear the buffer). Time
    is passed in by the caller so variants stay engine-agnostic.

    The buffer-writing shape keeps the per-event hot path
    allocation-free: the connection owns one buffer, clears it per
    event, and drains it in place. Unit tests use
    {!Action_buffer.collect} to get the familiar list back. *)

module type S = sig
  (** Human-readable variant name (appears in experiment tables). *)
  val name : string

  type t

  val create : Config.t -> t

  (** [reset t config] puts [t] back in the state [create config]
      builds, so that the same value can run another transfer: from
      then on, [t] and a fresh [create config] emit the same actions
      and report the same [cwnd], [acked], [finished] and [metrics]
      for the same events. Storage that grew during earlier transfers
      (sequence rings, scoreboards, tables) is kept; nothing is
      allocated. Timers the old transfer armed are the caller's to
      cancel. *)
  val reset : t -> Config.t -> unit

  (** [start t ~now buf] opens the connection: typically sends the
      initial window and arms the retransmission timer. *)
  val start : t -> now:float -> Action_buffer.t -> unit

  (** [on_ack t ~now ack buf] processes an arriving acknowledgement. *)
  val on_ack : t -> now:float -> Types.ack -> Action_buffer.t -> unit

  (** [on_timer t ~now ~key buf] handles expiry of the timer armed
      under [key]. Spurious keys (already superseded) must be
      ignored. *)
  val on_timer : t -> now:float -> key:int -> Action_buffer.t -> unit

  (** Current congestion window, in segments. *)
  val cwnd : t -> float

  (** Highest cumulative acknowledgement seen (segments delivered
      in order at the receiver). *)
  val acked : t -> int

  (** [finished t] is true once a bounded transfer
      ([Config.total_segments = Some n]) has been fully acknowledged.
      Always false for unbounded transfers. *)
  val finished : t -> bool

  (** Diagnostic counters (retransmissions, timeouts, spurious
      retransmissions detected, ...), for tests and experiment output. *)
  val metrics : t -> (string * float) list
end

(** A sender module packed with its state, as stored by
    {!Connection}. *)
type packed = Packed : (module S with type t = 'a) * 'a -> packed

(** [pack (module M) config] instantiates a variant. *)
val pack : (module S) -> Config.t -> packed

val name : packed -> string

(** [reset p config] is {!S.reset} on the packed state. *)
val reset : packed -> Config.t -> unit

val start : packed -> now:float -> Action_buffer.t -> unit

val on_ack : packed -> now:float -> Types.ack -> Action_buffer.t -> unit

val on_timer : packed -> now:float -> key:int -> Action_buffer.t -> unit

val cwnd : packed -> float

val acked : packed -> int

val finished : packed -> bool

val metrics : packed -> (string * float) list
