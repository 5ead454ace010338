(** TCP-PR sender — the paper's contribution (Section 3, Table 1).

    TCP-PR never interprets duplicate acknowledgements: a packet is
    declared lost if and only if its acknowledgement has not arrived
    [mxrtt = beta * ewrtt] seconds after it was (last) sent, where
    {!Ewrtt} maintains the RTT envelope. Consequently persistent
    reordering of data or acknowledgement packets — e.g. under
    multi-path routing — is never mistaken for loss.

    Congestion control:

    - packets live in [to-be-sent] (awaiting a window opening) and
      [to-be-ack] (outstanding); a detected drop moves the packet back
      to [to-be-sent];
    - every transmitted packet is stamped with its send time and the
      congestion window at send time; a detected drop halves the window
      to [cwnd(n) / 2] — half the window *when the packet was sent* —
      making the reduction insensitive to detection delay;
    - on the first drop of a burst a snapshot of the outstanding packets
      is taken into the [memorize] list; drops of memorized packets do
      not halve the window again (the sender has already reacted to that
      congestion event), mirroring NewReno/SACK;
    - slow start grows the window by one per ACK until [ssthr], then
      congestion avoidance grows it by [1/cwnd]; the sender returns to
      slow start only after extreme losses;
    - extreme losses (more than [cwnd/2 + 1] drops within one memorized
      burst, Section 3.2) reset [cwnd] to 1, raise [mxrtt] to at least
      one second, and delay further transmission by [mxrtt]; subsequent
      new drops at [cwnd = 1] double [mxrtt] instead of halving the
      window — emulating TCP's exponential timeout back-off;
    - if an acknowledgement for a packet previously declared dropped
      does arrive (a *false* drop, i.e. reordering), the pending
      retransmission is cancelled and the late RTT feeds the envelope,
      inflating [mxrtt] so subsequent reordering is tolerated.

    Timers use two keys: key 0 is the drop-detection deadline (earliest
    outstanding send time plus [mxrtt]); key 1 ends the extreme-loss
    transmission delay. *)

include Tcp.Sender.S

(** Hard floor on the drop threshold, 10 ms (one classic kernel
    jiffy): keeps a pathological parameterisation such as [beta = 1]
    with a fast-decaying envelope from declaring a packet dropped in
    the very instant it was sent. *)
val min_mxrtt : float

(** Current drop threshold [mxrtt], exposed for tests. *)
val mxrtt : t -> float

(** Current RTT envelope [ewrtt], exposed for tests. *)
val ewrtt : t -> float

(** Outstanding packets (size of the to-be-ack list). *)
val outstanding : t -> int

(** Packets currently flagged in the memorize list. *)
val memorize_size : t -> int

(** Current burst-drop counter (Section 3.2). *)
val cburst : t -> int

(** True while the sender is in the extreme-loss back-off state. *)
val in_extreme_backoff : t -> bool
