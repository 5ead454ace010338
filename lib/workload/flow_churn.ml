type config = {
  flows : int;
  mean_think_s : float;
  min_segments : int;
  max_segments : int;
  size_alpha : float;
  ramp_s : float;
}

let default_config =
  { flows = 100;
    mean_think_s = 0.5;
    min_segments = 4;
    max_segments = 512;
    size_alpha = 1.3;
    ramp_s = 1.0 }

(* Float checks are written negated so that NaN, for which every
   comparison is false, is rejected too. *)
let validate c =
  if c.flows < 1 then invalid_arg "Flow_churn: flows must be >= 1";
  if not (c.mean_think_s >= 0.) then
    invalid_arg "Flow_churn: negative think time";
  if c.min_segments < 1 then invalid_arg "Flow_churn: min_segments must be >= 1";
  if c.max_segments < c.min_segments then
    invalid_arg "Flow_churn: max_segments < min_segments";
  if not (c.size_alpha > 0.) then
    invalid_arg "Flow_churn: size_alpha must be > 0";
  if not (c.ramp_s >= 0.) then invalid_arg "Flow_churn: negative ramp"

(* Where the slots' traffic lives: any set of source/sink pairs on one
   network with per-pair routes. The dumbbell is the classic shape; a
   caller that wraps the route samplers (to time routing, say) builds
   the record from it and spawns over that. *)
type endpoints = {
  network : Net.Network.t;
  sources : Net.Node.t array;
  sinks : Net.Node.t array;
  route_data : int -> int array;
  route_ack : int -> int array;
}

let endpoints_of_dumbbell d =
  { network = d.Topo.Dumbbell.network;
    sources = d.Topo.Dumbbell.sources;
    sinks = d.Topo.Dumbbell.sinks;
    route_data = (fun pair -> Topo.Dumbbell.route_forward d ~pair);
    route_ack = (fun pair -> Topo.Dumbbell.route_reverse d ~pair) }

type t = {
  ep : endpoints;
  engine : Sim.Engine.t;
  sender : (module Tcp.Sender.S);
  base_config : Tcp.Config.t;
  churn : config;
  (* One independent stream per slot: a slot's think times and transfer
     sizes depend only on its own draws, so changing the slot count (or
     any other consumer of randomness) never perturbs the sequence a
     given slot sees. *)
  slot_rngs : Sim.Rng.t array;
  probe : Tcp.Probe.t option;
  mutable next_flow : int;
  mutable started : int;
  mutable completed : int;
  mutable segments_completed : int;
}

(* Bounded Pareto via inverse CDF: heavy-tailed transfer sizes (most
   transfers are mice, the byte count is dominated by elephants), the
   standard web/file-transfer size model. *)
let bounded_pareto rng ~alpha ~lo ~hi =
  if lo = hi then lo
  else begin
    let l = float_of_int lo and h = float_of_int hi in
    let u = Sim.Rng.float rng in
    let ratio = (l /. h) ** alpha in
    let x = l /. ((1. -. (u *. (1. -. ratio))) ** (1. /. alpha)) in
    let n = int_of_float x in
    if n < lo then lo else if n > hi then hi else n
  end

(* A slot's connection and the transfer it is running. Built on the
   slot's first transfer, not at spawn: set-up allocates nothing per
   slot beyond its first arrival. *)
type slot = {
  index : int;
  mutable connection : Tcp.Connection.t option;
  mutable flow : int;
  mutable segments : int;
}

(* Each slot runs a closed loop forever: think (exponential), transfer
   (bounded-Pareto size), repeat. Every transfer runs under a globally
   fresh flow id, on the slot's one connection: built by the first
   transfer, reset in place by every later one. Both endpoints are
   detached on completion, so any packet of a finished flow still in
   flight strands harmlessly at its endpoint. *)
let rec transfer t s =
  let rng = t.slot_rngs.(s.index) in
  let pair = s.index mod Array.length t.ep.sources in
  let flow = t.next_flow in
  t.next_flow <- flow + 1;
  t.started <- t.started + 1;
  let segments =
    bounded_pareto rng ~alpha:t.churn.size_alpha ~lo:t.churn.min_segments
      ~hi:t.churn.max_segments
  in
  s.flow <- flow;
  s.segments <- segments;
  let config =
    { t.base_config with Tcp.Config.total_segments = Some segments }
  in
  let c =
    match s.connection with
    | Some c when Tcp.Connection.reusable c ->
      Tcp.Connection.reuse c ~flow ~config;
      c
    | Some _ | None ->
      (* First transfer, or the last one's connection is still busy
         (a paced reader draining its socket, say): build one. *)
      let c =
        Tcp.Connection.create
          ~on_finish:(fun () -> finish t s)
          ?probe:t.probe t.ep.network ~flow ~src:t.ep.sources.(pair)
          ~dst:t.ep.sinks.(pair) ~sender:t.sender ~config
          ~route_data:(fun () -> t.ep.route_data pair)
          ~route_ack:(fun () -> t.ep.route_ack pair)
          ()
      in
      s.connection <- Some c;
      c
  in
  Tcp.Connection.start c ~at:(Sim.Engine.now t.engine)

and finish t s =
  let pair = s.index mod Array.length t.ep.sources in
  t.completed <- t.completed + 1;
  t.segments_completed <- t.segments_completed + s.segments;
  Net.Node.detach t.ep.sources.(pair) ~flow:s.flow;
  Net.Node.detach t.ep.sinks.(pair) ~flow:s.flow;
  let delay =
    if t.churn.mean_think_s = 0. then 0.
    else Sim.Rng.exponential t.slot_rngs.(s.index) ~mean:t.churn.mean_think_s
  in
  Sim.Engine.schedule_after t.engine ~delay (fun () -> transfer t s)

let spawn_endpoints ep ~sender ~config ~churn ~rngs ?probe () =
  validate churn;
  if Array.length ep.sources = 0 then
    invalid_arg "Flow_churn: endpoints need at least one pair";
  if Array.length ep.sources <> Array.length ep.sinks then
    invalid_arg "Flow_churn: sources/sinks length mismatch";
  if Array.length rngs <> churn.flows then
    invalid_arg "Flow_churn: need exactly one rng per slot";
  let engine = Net.Network.engine ep.network in
  let t =
    { ep;
      engine;
      sender;
      base_config = config;
      churn;
      slot_rngs = rngs;
      probe;
      next_flow = 0;
      started = 0;
      completed = 0;
      segments_completed = 0 }
  in
  (* Stagger the initial arrivals uniformly across the ramp so the
     population builds up as a Poisson-like stream rather than a
     thundering herd at t=0. *)
  for slot = 0 to churn.flows - 1 do
    let at =
      if churn.ramp_s = 0. then 0.
      else Sim.Rng.float_range t.slot_rngs.(slot) ~lo:0. ~hi:churn.ramp_s
    in
    Sim.Engine.schedule_at engine ~time:at (fun () ->
        transfer t { index = slot; connection = None; flow = -1; segments = 0 })
  done;
  t

(* [slot_rngs rng ~flows] is the canonical per-slot stream derivation:
   sequential splits of [rng] labelled by slot index. Splits advance
   the parent state, so the derivation must happen once, in slot order,
   from one parent — that is what lets [spawn_endpoints] callers
   reproduce [spawn]'s traffic exactly. *)
let slot_rngs rng ~flows =
  Array.init flows (fun slot ->
      Sim.Rng.split rng (Printf.sprintf "churn-slot-%d" slot))

let spawn dumbbell ~sender ~config ~churn ~rng () =
  validate churn;
  let rngs = slot_rngs rng ~flows:churn.flows in
  spawn_endpoints (endpoints_of_dumbbell dumbbell) ~sender ~config ~churn ~rngs ()

let transfers_started t = t.started

let transfers_completed t = t.completed

let segments_completed t = t.segments_completed

let bytes_completed t = t.segments_completed * Tcp.Config.mss

let active t = t.started - t.completed

let flows t = t.churn.flows
