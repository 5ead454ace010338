(** TCP-SACK engine with a pluggable response to spurious
    retransmissions.

    Loss detection and retransmission follow the RFC 3517 scoreboard: a
    segment is declared lost once [dupthresh] SACKed segments lie above
    it, and transmission is governed by the [pipe] estimate of packets
    in flight (which also yields extended limited transmit, as the
    Blanton–Allman study assumes).

    Spurious retransmissions are detected through DSACK reports
    (RFC 2883). On detection the engine restores the pre-retransmit
    congestion state by raising [ssthresh] back to the remembered cwnd —
    slow-starting up to it, as proposed in Blanton–Allman — and applies
    one of the dupthresh-adaptation policies the paper compares in
    Fig. 6:

    - [Static]: no adaptation (plain SACK ignores DSACK entirely;
      DSACK-NM restores the window but keeps dupthresh at 3);
    - [Constant_increment k]: dupthresh += k ("Inc by 1");
    - [Average]: dupthresh := avg(dupthresh, N) where N is the number of
      duplicate ACKs observed during the reordering event ("Inc by N");
    - [Ewma]: dupthresh follows an exponentially weighted moving average
      of the observed N ("EWMA"). *)

type dupthresh_policy =
  | Static
  | Constant_increment of int
  | Average
  | Ewma

(** How spurious retransmissions are detected: [Dsack] (RFC 2883
    duplicate reports, one RTT after the fact) or [Timestamp] (the
    Eifel algorithm's timestamp-echo test, on the first ACK covering
    the retransmitted sequence). *)
type detection =
  | Dsack
  | Timestamp

type response = {
  react_to_dsack : bool;
      (** false = plain TCP-SACK (spurious detection disabled) *)
  policy : dupthresh_policy;
  detection : detection;
}

val plain_sack : response

val dsack_nm : response

val inc_by_1 : response

val inc_by_n : response

val ewma : response

(** Eifel (Ludwig–Katz): timestamp detection, window restore, no
    dupthresh adaptation. *)
val eifel : response

(** When fast retransmit fires: [Immediate] is standard SACK;
    [Time_delayed] is TD-FR (Paxson), which waits [max(srtt / 2, DT)]
    after the first duplicate ACK (DT = spread between the first and
    third duplicates) and enters recovery only if the loss indication
    still stands — segments SACKed or acknowledged during the wait
    cancel it. [Rack] replaces the dupthresh rule entirely with
    RFC 8985-style time-based detection (no TLP): a segment is lost
    once a later-sent segment was delivered at least [reo_wnd] ago,
    with [reo_wnd] starting at srtt/4 and widening when reordering is
    detected — the modern mainstream descendant of the paper's
    timer-only idea. *)
type trigger =
  | Immediate
  | Time_delayed
  | Rack

type t

(** [create ?response ?trigger ?door config] builds the engine.
    [door] enables TCP-DOOR (Wang–Zhang, MobiHoc 2002, from the paper's
    related work): out-of-order ACK delivery — detected through the ACK
    serial number — freezes congestion responses for one RTT and undoes
    a response taken within the previous two RTTs. *)
val create :
  ?response:response -> ?trigger:trigger -> ?door:bool -> Config.t -> t

(** [reset t config] returns [t] to the state [create config] builds
    with [t]'s response, trigger and door, keeping the grown ring,
    scoreboards and event table (see {!Sender.S.reset}). *)
val reset : t -> Config.t -> unit

val start : t -> now:float -> Action_buffer.t -> unit

val on_ack : t -> now:float -> Types.ack -> Action_buffer.t -> unit

val on_timer : t -> now:float -> key:int -> Action_buffer.t -> unit

val cwnd : t -> float

val acked : t -> int

val dupthresh : t -> int

val in_recovery : t -> bool

val pipe : t -> int

val finished : t -> bool

val metrics : t -> (string * float) list
