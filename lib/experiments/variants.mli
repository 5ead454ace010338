(** The sender catalogue: every variant the simulator runs, as a label
    and its sender.

    This is the one place a variant is defined. TCP-PR is
    {!Core.Tcp_pr}; each of the other twelve is {!Tcp.Sack_core} or
    {!Tcp.Newreno_core} with one parameter set, packed by the core's
    [sender]. The label is the variant's only name: experiment tables,
    golden files, bench cells and [--variant] all use it. *)

type t = string * (module Tcp.Sender.S)

(** TCP-PR, the paper's contribution: loss is inferred from timers
    alone, never from duplicate ACKs (see {!Core.Tcp_pr}). *)
val tcp_pr : t

(** TCP-SACK (RFC 2018 + RFC 3517 scoreboard), the standard baseline
    the paper measures fairness against. Ignores DSACK. *)
val tcp_sack : t

(** Time-delayed fast recovery (TD-FR): TCP-SACK whose fast
    retransmit waits [max(srtt / 2, DT)] after the first duplicate ACK
    ([DT] = spread between the first and third duplicates) and fires
    only if duplicates persist — the Paxson / Blanton–Allman scheme the
    paper compares against. *)
val td_fr : t

(** DSACK-NM: TCP-SACK that, on a DSACK-detected spurious
    retransmission, restores the congestion window to its
    pre-retransmission value (by slow-starting back up) without
    modifying dupthresh — the simplest Blanton–Allman response. *)
val dsack_nm : t

(** "Inc by 1": Blanton–Allman DSACK response that increments dupthresh
    by one on every spurious retransmission (and restores the window). *)
val inc_by_1 : t

(** "Inc by N": Blanton–Allman DSACK response setting dupthresh to the
    average of its current value and the number of duplicate ACKs
    observed during the spurious event (and restoring the window). *)
val inc_by_n : t

(** "EWMA": Blanton–Allman DSACK response driving dupthresh with an
    exponentially weighted moving average of the duplicate-ACK counts
    observed at spurious retransmissions (and restoring the window). *)
val ewma : t

(** The Eifel algorithm (Ludwig & Katz, CCR 2000) — discussed in the
    paper's related work: TCP-SACK that detects spurious
    retransmissions through the timestamp echo and restores the
    congestion state to its pre-retransmission value. Detection is one
    round-trip faster than DSACK, but the duplicate-ACK threshold is
    never adapted, so persistent reordering still triggers a spurious
    retransmission per event. *)
val eifel : t

(** TCP-DOOR (Wang & Zhang, MobiHoc 2002) — the MANET-targeted scheme
    from the paper's related work: TCP-SACK extended with out-of-order
    ACK detection. An out-of-order ACK (detected through the serial
    number the receiver stamps on every acknowledgement) signals a
    route change rather than congestion: congestion responses are
    disabled for one RTT and a response taken within the previous two
    RTTs is undone. *)
val tcp_door : t

(** RACK: time-based loss detection in the style of RFC 8985
    (simplified; no tail-loss probe).

    Not a baseline from the paper but its modern mainstream descendant,
    included as an extension: like TCP-PR it infers loss from *time*
    — a segment is lost once a later-sent segment has been delivered
    for at least a reordering window — rather than from duplicate-ACK
    counts, and the reordering window adapts when DSACKs reveal
    reordering. *)
val rack : t

(** TCP-Tahoe: the oldest baseline — fast retransmit without fast
    recovery; every inferred loss returns the sender to slow start. *)
val tahoe : t

(** Classic TCP-Reno: fast retransmit and fast recovery, but recovery
    ends at the first partial acknowledgement — multiple losses in one
    window usually cost a timeout. *)
val reno : t

(** TCP-NewReno: the classic duplicate-ACK-triggered fast
    retransmit / fast recovery baseline (see {!Tcp.Newreno_core}). *)
val newreno : t

(** Every implemented variant: TCP-SACK, then {!classics}, {!fig6} and
    {!extensions}. *)
val all : t list

(** The six schemes of Fig. 6, in the paper's order: TCP-PR, TD-FR,
    DSACK-NM, Inc by 1, Inc by N, EWMA. *)
val fig6 : t list

(** Schemes beyond the paper's comparison: Eifel and TCP-DOOR from the
    related work, and RACK (the modern timer-based descendant). *)
val extensions : t list

(** Historical baselines: Tahoe, Reno, NewReno. *)
val classics : t list

(** [canonical name] is the label normalised for lookups and file
    names: lower-case, with spaces and underscores mapped to dashes
    (e.g. ["Inc by 1"] -> ["inc-by-1"]). *)
val canonical : string -> string

(** [find name] looks a variant up by its label (case-insensitive;
    spaces and dashes interchangeable). *)
val find : string -> t option
