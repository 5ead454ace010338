type cross_pair = {
  index : int;
  cross_source : Net.Node.t;
  cross_sink : Net.Node.t;
  forward_route : int array;
  reverse_route : int array;
}

type t = {
  network : Net.Network.t;
  source : Net.Node.t;
  destination : Net.Node.t;
  core : Net.Node.t array;
  cross_pairs : cross_pair list;
  main_forward : int array;
  main_reverse : int array;
}

let mbps x = x *. 1e6

let core_delay_s = 0.010

let access_delay_s = 0.005

let queue_capacity = 50

let create engine ?(bandwidth_scale = 1.) () =
  if bandwidth_scale <= 0. then
    invalid_arg "Parking_lot.create: bandwidth_scale must be positive";
  let network = Net.Network.create engine in
  let duplex ~src ~dst ~bandwidth ~delay =
    ignore
      (Net.Network.add_duplex network ~src ~dst
         ~bandwidth_bps:(bandwidth *. bandwidth_scale) ~delay_s:delay
         ~capacity:queue_capacity ())
  in
  let core = Array.init 4 (fun _ -> Net.Network.add_node network) in
  for i = 0 to 2 do
    duplex ~src:core.(i) ~dst:core.(i + 1) ~bandwidth:(mbps 15.)
      ~delay:core_delay_s
  done;
  let source = Net.Network.add_node network in
  duplex ~src:source ~dst:core.(0) ~bandwidth:(mbps 15.) ~delay:access_delay_s;
  let destination = Net.Network.add_node network in
  duplex ~src:core.(3) ~dst:destination ~bandwidth:(mbps 15.)
    ~delay:access_delay_s;
  (* Cross sources CS1..CS3 with the paper's bandwidths; cross sinks
     CD1..CD3 on nodes 2..4 at 15 Mb/s. *)
  let cross_source_bandwidths = [| mbps 5.; mbps 1.66; mbps 2.5 |] in
  let cross_sources =
    Array.init 3 (fun i ->
        let cs = Net.Network.add_node network in
        duplex ~src:cs ~dst:core.(i) ~bandwidth:cross_source_bandwidths.(i)
          ~delay:access_delay_s;
        cs)
  in
  let cross_sinks =
    Array.init 3 (fun i ->
        let cd = Net.Network.add_node network in
        duplex ~src:core.(i + 1) ~dst:cd ~bandwidth:(mbps 15.)
          ~delay:access_delay_s;
        cd)
  in
  (* Paper's connection matrix: (source index, sink index), 0-based. *)
  let matrix = [ (0, 0); (0, 1); (0, 2); (1, 1); (1, 2); (2, 2) ] in
  let core_ids lo hi =
    (* Node ids of core.(lo) .. core.(hi), inclusive, in order. *)
    List.init (hi - lo + 1) (fun k -> Net.Node.id core.(lo + k))
  in
  let cross_pairs =
    List.mapi
      (fun index (si, di) ->
        let cross_source = cross_sources.(si) in
        let cross_sink = cross_sinks.(di) in
        (* Data enter the core at node si+1, leave at node di+2 (paper
           numbering), i.e. array indices si .. di+1. *)
        let forward_route =
          Array.of_list (core_ids si (di + 1) @ [ Net.Node.id cross_sink ])
        in
        let reverse_route =
          Array.of_list
            (List.rev (core_ids si (di + 1)) @ [ Net.Node.id cross_source ])
        in
        { index; cross_source; cross_sink; forward_route; reverse_route })
      matrix
  in
  let main_forward =
    Array.of_list
      (List.init 4 (fun i -> Net.Node.id core.(i)) @ [ Net.Node.id destination ])
  in
  let main_reverse =
    Array.of_list
      (List.rev (List.init 4 (fun i -> Net.Node.id core.(i)))
      @ [ Net.Node.id source ])
  in
  { network; source; destination; core; cross_pairs; main_forward; main_reverse }

let route_forward t = t.main_forward

let route_reverse t = t.main_reverse
