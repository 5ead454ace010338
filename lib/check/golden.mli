(** Golden-trace regression: canonical probe-event traces for a small
    set of figure-derived scenarios, digested and checked into the
    repository.

    Each case is a deterministic miniature of one of the paper's
    experiments (Fig. 2 and Fig. 3 dumbbell runs against a TCP-SACK
    competitor; Fig. 6 single-flow multi-path runs; one host-stack run),
    built from the {!Experiments.Scenario} catalogue. The full trace is
    rendered through {!Tcp.Probe.to_line} — every behavioural change in
    the sender, receiver, queues or scheduler shows up as a textual
    difference — and its MD5 digest is stored in [DIGESTS], with the
    trace itself alongside so a drift produces a readable line diff,
    not just a hash mismatch.

    Traces must be byte-identical at every [--jobs] value: cases are
    recomputed through {!Experiments.Runner.parallel_map}, and each case
    builds its own engine, so domain-parallel recomputation cannot
    perturb the result. *)

(** The miniature a case runs. *)
type figure =
  | Fig2  (** the variant against TCP-SACK on the 1.5 Mb/s dumbbell *)
  | Fig3  (** the same pairing at half the bottleneck bandwidth *)
  | Fig6  (** one flow on the lattice, epsilon-routed at epsilon = 0 *)
  | Hoststack  (** one flow on the dumbbell with the host-stack sink *)

type case

(** [run ~config figure sender] runs [figure]'s miniature for 60
    simulated seconds on a fresh engine with [sender] under [config]
    (and GRO [coalesce] on the sink's ingress links when given).
    Returns the canonical trace and [sender]'s connection. A case's
    trace is [run] under its golden config: 80 segments,
    {!Experiments.Scenario.bounded_config}, or for [Hoststack]
    {!Experiments.Scenario.hoststack_config} read at 10 segments/s. *)
val run :
  ?coalesce:float * int ->
  config:Tcp.Config.t ->
  figure ->
  (module Tcp.Sender.S) ->
  string * Tcp.Connection.t

(** The checked-in case set: fig2 and fig3 for TCP-PR and TCP-SACK,
    fig6 for the paper's six compared variants, hoststack for
    TCP-PR. *)
val cases : case list

(** Stable case identifier, e.g. ["fig6__tcp-pr"]; also the trace file
    basename. *)
val id : case -> string

(** [compute case] renders the full canonical trace (newline-joined
    probe lines, trailing newline). *)
val compute : case -> string

val digest_of_trace : string -> string

(** [compute_all ~jobs] computes every case's [(id, trace)] on a domain
    pool, in [cases] order. *)
val compute_all : jobs:int -> (string * string) list

(** [write ~dir ~jobs] (re)creates [dir] with one [<id>.trace] file per
    case plus the [DIGESTS] index. *)
val write : dir:string -> jobs:int -> unit

(** [first_diff ~expected ~actual] names the first line where two
    newline-separated texts differ, with both versions of it. *)
val first_diff : expected:string -> actual:string -> string

(** [verify ~dir ~jobs] recomputes every case and checks it against
    [dir]: [`Ok], [`Missing] when the digest entry is absent, or
    [`Mismatch detail] where [detail] pinpoints the first differing
    trace line against the stored [<id>.trace]. *)
val verify : dir:string -> jobs:int -> (string * [ `Ok | `Missing | `Mismatch of string ]) list
