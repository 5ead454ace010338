type topology =
  | Dumbbell
  | Parking_lot

let topology_name = function
  | Dumbbell -> "dumbbell"
  | Parking_lot -> "parking-lot"

type point = {
  topology : topology;
  flows_per_protocol : int;
  pr_normalized : float list;
  sack_normalized : float list;
  mean_pr : float;
  mean_sack : float;
}

let pr_label = "TCP-PR"

let sack_label = "TCP-SACK"

let fairness_specs ~flows_per_protocol : Runner.flow_spec list =
  let pr_name, pr_module = Variants.tcp_pr in
  let sack_name, sack_module = Variants.tcp_sack in
  assert (pr_name = pr_label && sack_name = sack_label);
  [ { Runner.label = pr_label; sender = pr_module; count = flows_per_protocol };
    { Runner.label = sack_label;
      sender = sack_module;
      count = flows_per_protocol } ]

let run ?seed ?warmup ?window topology ~flows_per_protocol () =
  let specs = fairness_specs ~flows_per_protocol in
  let result =
    match topology with
    | Dumbbell -> Runner.dumbbell_fairness ?seed ?warmup ?window ~specs ()
    | Parking_lot -> Runner.parking_lot_fairness ?seed ?warmup ?window ~specs ()
  in
  let all = Runner.all_throughputs result in
  let normalize label =
    let average = List.fold_left ( +. ) 0. all /. float_of_int (List.length all) in
    List.map (fun x -> x /. average) (Runner.group result ~label)
  in
  let pr_normalized = normalize pr_label in
  let sack_normalized = normalize sack_label in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  { topology;
    flows_per_protocol;
    pr_normalized;
    sack_normalized;
    mean_pr = mean pr_normalized;
    mean_sack = mean sack_normalized }

let series ?seed ?warmup ?window ?(counts = [ 1; 2; 4; 8; 16; 32 ]) ?(jobs = 1)
    topology () =
  Runner.parallel_map ~jobs
    (fun flows_per_protocol ->
      run ?seed ?warmup ?window topology ~flows_per_protocol ())
    counts

let to_table points =
  let table =
    Stats.Table.create
      ~columns:
        [ "total flows"; "mean T (TCP-PR)"; "mean T (TCP-SACK)"; "min T"; "max T" ]
  in
  let add point =
    let all = point.pr_normalized @ point.sack_normalized in
    Stats.Table.add_float_row table
      (string_of_int (2 * point.flows_per_protocol))
      [ point.mean_pr;
        point.mean_sack;
        List.fold_left Float.min infinity all;
        List.fold_left Float.max neg_infinity all ]
  in
  List.iter add points;
  table
