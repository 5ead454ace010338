type t = {
  network : Net.Network.t;
  source : Net.Node.t;
  destination : Net.Node.t;
  hop_counts : int array;
  forward_routes : int array array;
  reverse_routes : int array array;
}

(* Packets per link queue, as in Fig. 5. *)
let queue_capacity = 100

let create engine ?(path_hops = [ 3; 4; 5 ]) ?(bandwidth_bps = 10e6)
    ?(delay_s = 0.010) ?loss ?jitter () =
  if path_hops = [] then invalid_arg "Multipath_lattice.create: no paths";
  List.iter
    (fun h ->
      if h < 2 then
        invalid_arg "Multipath_lattice.create: each path needs >= 2 links")
    path_hops;
  let network = Net.Network.create engine in
  let source = Net.Network.add_node network in
  let destination = Net.Network.add_node network in
  let duplex ~src ~dst =
    ignore
      (Net.Network.add_duplex network ~src ~dst ~bandwidth_bps ~delay_s
         ~capacity:queue_capacity ?loss ?jitter ())
  in
  let build_path hops =
    (* [hops] links need [hops - 1] intermediate nodes. *)
    let intermediates =
      Array.init (hops - 1) (fun _ -> Net.Network.add_node network)
    in
    duplex ~src:source ~dst:intermediates.(0);
    for i = 0 to hops - 3 do
      duplex ~src:intermediates.(i) ~dst:intermediates.(i + 1)
    done;
    duplex ~src:intermediates.(hops - 2) ~dst:destination;
    let ids = Array.map Net.Node.id intermediates in
    let forward = Array.append ids [| Net.Node.id destination |] in
    let reverse =
      let n = Array.length ids in
      Array.append
        (Array.init n (fun i -> ids.(n - 1 - i)))
        [| Net.Node.id source |]
    in
    (forward, reverse)
  in
  let routes = List.map build_path path_hops in
  { network;
    source;
    destination;
    hop_counts = Array.of_list path_hops;
    forward_routes = Array.of_list (List.map fst routes);
    reverse_routes = Array.of_list (List.map snd routes) }

let path_count t = Array.length t.hop_counts

let path_delays t =
  (* Every link of a path shares the same propagation delay; read it off
     the first link of each forward route. *)
  Array.mapi
    (fun index hops ->
      let first_hop = t.forward_routes.(index).(0) in
      match
        Net.Network.link_between t.network ~src:(Net.Node.id t.source)
          ~dst:first_hop
      with
      | Some link -> float_of_int hops *. Net.Link.delay_s link
      | None -> assert false)
    t.hop_counts
