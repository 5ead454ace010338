type t = {
  network : Net.Network.t;
  mobility : Mobility.t;
  range : float;
  radios : Net.Node.t array;
}

let create engine rng ~nodes ~width ~height ~range ~speed_range
    ?(bandwidth_bps = 2e6) ?(delay_s = 0.003) () =
  if nodes < 2 then invalid_arg "Adhoc.create: need at least two nodes";
  if range <= 0. then invalid_arg "Adhoc.create: bad range";
  let network = Net.Network.create engine in
  let mobility =
    Mobility.create engine
      (Sim.Rng.split rng "mobility")
      ~nodes ~width ~height ~speed_range ()
  in
  let radios = Array.init nodes (fun _ -> Net.Network.add_node network) in
  (* Full mesh of potential radio links; each drops traffic while its
     endpoints are out of range. *)
  for i = 0 to nodes - 1 do
    for j = 0 to nodes - 1 do
      if i <> j then begin
        let loss =
          Net.Loss_model.custom (fun _ ->
              not (Mobility.within_range mobility ~range i j))
        in
        ignore
          (Net.Network.add_link network ~src:radios.(i) ~dst:radios.(j)
             ~bandwidth_bps ~delay_s ~capacity:50 ~loss ())
      end
    done
  done;
  { network; mobility; range; radios }

let network t = t.network

let mobility t = t.mobility

let node t i = t.radios.(i)

(* BFS over current radio connectivity. The mesh is small (MANET
   scenarios use tens of nodes), so per-packet recomputation is cheap
   and models a routing protocol with instantaneous convergence; stale
   routes appear only through the partitioned fallback below. *)
let current_route t ~src ~dst =
  let n = Mobility.node_count t.mobility in
  if src = dst then Some [||]
  else begin
    let parent = Array.make n (-1) in
    parent.(src) <- src;
    let queue = Queue.create () in
    Queue.push src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let current = Queue.pop queue in
      for next = 0 to n - 1 do
        if
          next <> current
          && parent.(next) = -1
          && Mobility.within_range t.mobility ~range:t.range current next
        then begin
          parent.(next) <- current;
          if next = dst then found := true else Queue.push next queue
        end
      done
    done;
    if not !found then None
    else begin
      let rec build node acc =
        if node = src then acc else build parent.(node) (node :: acc)
      in
      (* Mobility indices equal network node ids by construction. *)
      Some
        (Array.of_list
           (List.map (fun i -> Net.Node.id t.radios.(i)) (build dst [])))
    end
  end

let route_fn t ~src ~dst =
  let fallback = ref [| Net.Node.id t.radios.(dst) |] in
  fun () ->
    match current_route t ~src ~dst with
    | Some route ->
      fallback := route;
      route
    | None -> !fallback
