module type S = sig
  type t

  val create : Config.t -> t

  val reset : t -> Config.t -> unit

  val start : t -> now:float -> Action_buffer.t -> unit

  val on_ack : t -> now:float -> Types.ack -> Action_buffer.t -> unit

  val on_timer : t -> now:float -> key:int -> Action_buffer.t -> unit

  val cwnd : t -> float

  val acked : t -> int

  val finished : t -> bool

  val metrics : t -> (string * float) list
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let pack (module M : S) config = Packed ((module M), M.create config)

let reset (Packed ((module M), state)) config = M.reset state config

let start (Packed ((module M), state)) ~now buf = M.start state ~now buf

let on_ack (Packed ((module M), state)) ~now ack buf =
  M.on_ack state ~now ack buf

let on_timer (Packed ((module M), state)) ~now ~key buf =
  M.on_timer state ~now ~key buf

let cwnd (Packed ((module M), state)) = M.cwnd state

let acked (Packed ((module M), state)) = M.acked state

let finished (Packed ((module M), state)) = M.finished state

let metrics (Packed ((module M), state)) = M.metrics state
