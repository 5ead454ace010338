(* MANET demo — the environment of the paper's future-work section.
   Twelve radios on a 300 x 300 plane; source and destination pinned at
   opposite sides, relayed over two to three hops through mobile nodes
   under random-waypoint motion. Route changes reorder packets in
   flight and black-hole bursts on stale hops.

   Run with: dune exec examples/manet_demo.exe *)

let () =
  print_endline "One TCP flow across a mobile ad-hoc network (60 s):";
  Printf.printf "%-10s %8s %12s %14s\n" "variant" "Mb/s" "retransmits"
    "spurious dups";
  List.iter
    (fun (label, r) ->
      Printf.printf "%-10s %8.2f %12.0f %14d\n" label
        r.Experiments.Runner.mbps
        r.Experiments.Runner.retransmits
        r.Experiments.Runner.spurious_duplicates)
    (Experiments.Manet_experiment.compare ~seed:1 ~duration:60. ());
  print_endline
    "\nRoute breaks here mostly *lose* packets (stale hops black-hole\n\
     bursts) rather than reorder them, so TCP-PR's timer detection has\n\
     no spurious retransmissions at all but also no big win - consistent\n\
     with the paper deferring wireless adaptation to future work."
