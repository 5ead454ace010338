module Make (P : sig
  val name : string

  val response : Sack_core.response
end) : Sender.S = struct
  let name = P.name

  type t = Sack_core.t

  let create config = Sack_core.create ~response:P.response config

  let reset = Sack_core.reset

  let start = Sack_core.start

  let on_ack = Sack_core.on_ack

  let on_timer = Sack_core.on_timer

  let cwnd = Sack_core.cwnd

  let acked = Sack_core.acked

  let finished = Sack_core.finished

  let metrics = Sack_core.metrics
end
