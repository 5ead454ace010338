(** MANET scenario — the paper's future-work environment.

    Twelve radios: source and destination pinned at opposite ends of
    the plane, farther apart than one radio hop, so every packet relays
    through the ten mobile nodes between them (speeds up to 8 units/s).
    Node movement changes the relaying path every few seconds: packets
    in flight on the old path are reordered against the new one, and a
    stale hop occasionally black-holes a burst — the MANET conditions
    of Holland–Vaidya and Wang–Zhang. *)

(** [run ~sender ()] measures one flow.
    @param duration simulated seconds (default 60). *)
val run :
  ?seed:int ->
  ?duration:float ->
  sender:(module Tcp.Sender.S) ->
  unit ->
  Runner.flow_result

(** [compare ()] runs TCP-PR, TCP-SACK, TCP-DOOR and RACK (the
    MANET-relevant set). *)
val compare :
  ?seed:int ->
  ?duration:float ->
  ?jobs:int ->
  unit ->
  (string * Runner.flow_result) list
