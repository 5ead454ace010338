(** Route-flap scenario — the paper's motivating Internet pathology
    ("oscillations or route flaps among routes with different
    round-trip times are a common cause of out-of-order packets",
    citing Paxson).

    Unlike the Fig. 6 lattice, where every packet samples a path
    independently, here *all* traffic follows one route at a time and
    the route flips between a fast path (5 ms links) and a slow one
    (40 ms links) once per second. Each flap from slow to fast reorders
    the packets in flight. No randomness is involved. *)

(** [run ~sender ()] measures one flow under flapping routes.
    @param duration simulated seconds (default 60). *)
val run :
  ?duration:float -> sender:(module Tcp.Sender.S) -> unit -> Runner.flow_result

(** [compare ()] runs TCP-PR, TCP-SACK, TD-FR and RACK and returns
    labelled results. *)
val compare :
  ?duration:float -> ?jobs:int -> unit -> (string * Runner.flow_result) list
