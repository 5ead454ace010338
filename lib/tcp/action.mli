(** Effects requested by a sender state machine.

    Senders are state machines: event handlers write their actions into
    an {!Action_buffer.t}, which {!Connection} drains against the
    simulated network. This keeps every congestion-control algorithm
    unit-testable without an engine ({!Action_buffer.collect} reads a
    buffer back as a list of these values). *)

type t =
  | Send of { seq : int; retx : bool }
      (** transmit segment [seq]; [retx] marks retransmissions *)
  | Set_timer of { key : int; delay : float }
      (** arm (or re-arm, replacing any pending timer with the same
          [key]) a timer that fires [delay] seconds from now *)
  | Cancel_timer of { key : int }  (** disarm the timer with [key] *)
