(** Differential torture harness: deterministic random scenarios run
    through the full simulator with the {!Monitor} suite armed.

    A scenario is generated from a seed alone — topology choice,
    loss/jitter intensity, routing behaviour, receiver options and
    transfer size all derive from splits of the root RNG — and every
    sender variant can be run through the same scenario, which is what
    makes the harness differential: the environment is identical, only
    the congestion-control logic differs, and each variant must satisfy
    its own invariant suite while completing the transfer. *)

type topology =
  | Dumbbell  (** single bottleneck with injected loss and jitter *)
  | Parking_lot  (** Fig. 1 chain, scaled down so queues overflow *)
  | Lattice  (** Fig. 5 multi-path with epsilon-routing / route flaps *)

type scenario = {
  seed : int;
  topology : topology;
  loss : float;  (** Bernoulli loss probability per link traversal *)
  jitter : float;  (** max extra per-packet delay, seconds *)
  epsilon : float;  (** epsilon-routing parameter (lattice) *)
  route_flap : bool;  (** lattice: hop between paths every 0.75 s *)
  delayed_ack : bool;
  total_segments : int;
  bandwidth_scale : float;  (** scales the scenario's base bandwidths *)
  coalesce : (float * int) option;
      (** host-stack axis: GRO coalesce timer (s) and max burst on the
          sink's ingress links; [None] = no coalescing *)
  rcv_buf : int option;
      (** host-stack axis: finite receive buffer, segments; [None] =
          unbounded (the pre-PR9 idealised sink) *)
  time_limit : float;  (** simulated-seconds budget for the transfer *)
}

(** [generate ~seed ()] derives a scenario deterministically. *)
val generate : seed:int -> unit -> scenario

val describe : scenario -> string

(** TCP configuration used by every oracle run of [scenario]: bounded
    transfer, 200 ms min RTO and 16 s max RTO so hostile runs converge
    within the time budget. *)
val config : scenario -> Tcp.Config.t

type report = {
  scenario : scenario;
  variant : string;
  finished : bool;  (** sender acknowledged the whole transfer *)
  delivered : int;  (** segments delivered in order at the sink *)
  events : int;  (** probe events observed *)
  violations : Monitor.violation list;
  violation_total : int;  (** including any beyond the per-monitor cap *)
  trace_tail : string list;  (** last probe events, for failure reports *)
}

(** [run scenario ~variant:(name, (module M))] executes one variant
    through the scenario with the {!Monitor.for_variant} suite armed
    and returns the evidence. The monitor suite is selected by [name],
    so a deliberately corrupted sender can be smuggled in under a
    conformant variant's name to prove the monitors catch it. *)
val run : scenario -> variant:string * (module Tcp.Sender.S) -> report

(** Transfer completed, everything delivered, zero violations. *)
val passed : report -> bool

val pp_report : Format.formatter -> report -> unit
