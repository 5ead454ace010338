(* Per-call spans around the layers the benchmark can reach from outside
   the simulator: the sender handlers and the route draws. Every wrapped
   call returns exactly what the wrapped one does, so a traced run
   simulates the same packets as an untraced one. *)

(* [Sender (S) (V)] is [S] with [create] / [start] / [on_ack] /
   [on_timer] recorded as [tcp.sender.<handler>.<V.variant>]. *)
module Sender (S : Tcp.Sender.S) (V : sig
  val variant : string
end) : Tcp.Sender.S with type t = S.t = struct
  include S

  let id handler =
    Spans.register ~sampled:true
      (Printf.sprintf "tcp.sender.%s.%s" handler V.variant)

  let create_id = id "create"

  let start_id = id "start"

  let on_ack_id = id "on_ack"

  let on_timer_id = id "on_timer"

  let create config =
    Spans.enter create_id;
    let t = S.create config in
    ignore (Spans.leave ());
    t

  let start t ~now buf =
    Spans.enter start_id;
    S.start t ~now buf;
    ignore (Spans.leave ())

  let on_ack t ~now ack buf =
    Spans.enter on_ack_id;
    S.on_ack t ~now ack buf;
    ignore (Spans.leave ())

  let on_timer t ~now ~key buf =
    Spans.enter on_timer_id;
    S.on_timer t ~now ~key buf;
    ignore (Spans.leave ())
end

let sender (label, m) : (module Tcp.Sender.S) =
  let module S = (val m : Tcp.Sender.S) in
  let module T =
    Sender
      (S)
      (struct
        let variant = Experiments.Variants.canonical label
      end)
  in
  (module T)

let route_id = Spans.register ~sampled:true "multipath.route"

let route f x =
  Spans.enter route_id;
  let r = f x in
  ignore (Spans.leave ());
  r
