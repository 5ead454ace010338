type node_state = {
  mutable x : float;
  mutable y : float;
  mutable target_x : float;
  mutable target_y : float;
  mutable speed : float;
  mutable pinned : bool;
}

type t = {
  rng : Sim.Rng.t;
  width : float;
  height : float;
  speed_lo : float;
  speed_hi : float;
  dt : float;
  nodes : node_state array;
}

let pick_waypoint t node =
  node.target_x <- Sim.Rng.float_range t.rng ~lo:0. ~hi:t.width;
  node.target_y <- Sim.Rng.float_range t.rng ~lo:0. ~hi:t.height;
  node.speed <- Sim.Rng.float_range t.rng ~lo:t.speed_lo ~hi:t.speed_hi

let step t =
  Array.iter
    (fun node ->
      if not node.pinned then begin
        let dx = node.target_x -. node.x in
        let dy = node.target_y -. node.y in
        let remaining = sqrt ((dx *. dx) +. (dy *. dy)) in
        let travel = node.speed *. t.dt in
        if remaining <= travel then begin
          node.x <- node.target_x;
          node.y <- node.target_y;
          pick_waypoint t node
        end
        else begin
          node.x <- node.x +. (dx /. remaining *. travel);
          node.y <- node.y +. (dy /. remaining *. travel)
        end
      end)
    t.nodes

let create engine rng ~nodes ~width ~height ~speed_range ?(dt = 0.1) () =
  let speed_lo, speed_hi = speed_range in
  if nodes < 1 then invalid_arg "Mobility.create: need at least one node";
  if width <= 0. || height <= 0. then invalid_arg "Mobility.create: bad plane";
  if speed_lo <= 0. || speed_hi < speed_lo then
    invalid_arg "Mobility.create: bad speed range";
  if dt <= 0. then invalid_arg "Mobility.create: bad dt";
  let t =
    { rng;
      width;
      height;
      speed_lo;
      speed_hi;
      dt;
      nodes =
        Array.init nodes (fun _ ->
            { x = Sim.Rng.float_range rng ~lo:0. ~hi:width;
              y = Sim.Rng.float_range rng ~lo:0. ~hi:height;
              target_x = 0.;
              target_y = 0.;
              speed = speed_lo;
              pinned = false }) }
  in
  Array.iter (fun node -> pick_waypoint t node) t.nodes;
  let rec tick () =
    step t;
    Sim.Engine.schedule_after engine ~delay:t.dt tick
  in
  Sim.Engine.schedule_after engine ~delay:t.dt tick;
  t

let node_count t = Array.length t.nodes

let position t i =
  let node = t.nodes.(i) in
  (node.x, node.y)

let distance t i j =
  let a = t.nodes.(i) and b = t.nodes.(j) in
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let within_range t ~range i j = distance t i j <= range

let pin t i (x, y) =
  let node = t.nodes.(i) in
  node.x <- x;
  node.y <- y;
  node.pinned <- true
