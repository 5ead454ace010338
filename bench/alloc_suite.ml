(* Allocation-per-packet measurement scenarios.

   Each scenario builds its own engine and network, so it can count
   simulated packets directly off the links: a "simulated packet" here
   is one link-level transmission or drop (a packet-hop), the unit the
   hot path pays for. The suite reports wall-clock, GC-allocated bytes,
   minor collections, and bytes per simulated packet.

   The six scenarios come from four builders over the shapes of
   Experiments.Scenario (and Experiments.Scale's churn): "dumbbell" and
   "hoststack" differ only by the host-stack layer, "lattice" and
   "analytics" only by the reorder sketch; "jitter-chain" and "churn"
   stand alone.

   One harness, two judges: `bench/main.exe gate` holds every scenario
   and every sender variant within 16 B of the committed
   bench/baseline.json (written only by `bench/main.exe record`), and
   test/test_alloc.ml holds them under fixed portable ceilings on every
   `dune runtest`.

   Every scenario warms up with a throwaway transfer before the
   measured phase: construction and first-use costs (topology, pools
   filling, rings and heaps growing to their steady size) are one-time,
   and folding them into the quotient hid regressions on the actual
   per-packet path behind a constant that shrank as runs got longer.
   Packets are counted as a delta across the measured phase only.

   Scenarios are deterministic (fixed seeds, no domains), so packet
   counts are exact and allocation counts are reproducible for a given
   compiler version. *)

type measurement = {
  scenario : string;
  wall_s : float;
  allocated_bytes : float;
  minor_collections : int;
  packets : int;
  bytes_per_packet : float;
}

(* A scenario is a warmed-up simulation plus the phase left to run:
   [measured] drives the steady-state traffic the suite charges, and
   raises [Failure] if that traffic did not exercise what the scenario
   exists to charge. *)
type scenario = {
  network : Net.Network.t;
  measured : unit -> unit;
}

let count_packets network =
  List.fold_left
    (fun acc link ->
      acc + Net.Link.transmitted_packets link + Net.Link.queue_drops link)
    (Net.Network.total_injected_losses network)
    (Net.Network.links network)

(* [measure name f] builds the scenario (running its warmup), then
   captures GC and wall-clock deltas around the measured phase only. *)
let measure scenario f =
  let s = f () in
  Gc.full_major ();
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let packets0 = count_packets s.network in
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  s.measured ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_collections =
    (Gc.quick_stat ()).Gc.minor_collections - minor0
  in
  (* Flush the minor heap before reading the allocation counter: on
     OCaml 5.x [Gc.allocated_bytes] only reflects words already drained
     by a minor collection, so whatever sits in the current arena (up
     to the full arena, ~2 MB) is invisible. Without the flush the
     reading swings by GC-phase alignment, not by real allocation. *)
  Gc.minor ();
  let allocated_bytes = Gc.allocated_bytes () -. bytes0 in
  let packets = count_packets s.network - packets0 in
  { scenario;
    wall_s;
    allocated_bytes;
    minor_collections;
    packets;
    bytes_per_packet =
      (if packets = 0 then 0. else allocated_bytes /. float_of_int packets) }

module Scenario = Experiments.Scenario

let tcp_pr = snd Experiments.Variants.tcp_pr

(* Two competing flows (TCP-PR vs TCP-SACK) through a 1.5 Mb/s
   dumbbell bottleneck: the fig. 2/3 regime, fixed single-path routes.
   The warmup transfer is an identical pair of flows run to completion
   first; the measured pair then starts on the already-warm network.

   With [hoststack] the same pairs run over the host-stack layer at
   full tilt: a finite autotuned receive buffer, a paced application
   reader (which keeps the app-drain timer and the window-reopen path
   hot) and GRO coalescing on the sink's ingress links. That charges
   the whole enabled path — admission accounting, rwnd clamping,
   coalesced burst delivery, persist re-arms — per packet-hop, under
   the same 16 B/packet gate budget as the idealised scenarios. *)
let dumbbell_scenario ~hoststack () =
  let engine = Sim.Engine.create () in
  let path, config =
    if hoststack then
      ( Scenario.hoststack engine,
        { (Scenario.hoststack_config ~app_rate:100. 600) with
          Tcp.Config.rcv_buf_segments = Some 32;
          rcv_buf_max_segments = 64 } )
    else (Scenario.dumbbell engine, Scenario.bounded_config 600)
  in
  let race ~at flow =
    ignore (Scenario.race path ~flow ~at ~sender:tcp_pr ~config)
  in
  race ~at:0. 0;
  Sim.Engine.run engine ~until:120.;
  race ~at:120. 2;
  { network = path.Scenario.network;
    measured = (fun () -> Sim.Engine.run engine ~until:240.) }

(* Epsilon-routed multipath lattice at eps = 0 (uniform path choice,
   maximal persistent reordering): the fig. 6 regime. One throwaway
   transfer first, then an identical measured one.

   With [analytics] the reordering analytics run at full tilt: the
   always-on streaming RFC 4737 instance in the receiver AND the sketch
   detector tapping every data arrival at the connection. Identical
   traffic, so the difference between the two quotients is the
   analytics' own per-packet cost — which must be indistinguishable
   from zero under the gate budget. *)
let lattice_scenario ~analytics () =
  let engine = Sim.Engine.create () in
  let lattice = Scenario.lattice engine in
  let rng = Sim.Rng.create 42 in
  let sketch =
    if analytics then Some (Obs.Reorder_sketch.create ()) else None
  in
  let start ~at flow =
    let path =
      Scenario.eps_path lattice rng ~suffix:(Printf.sprintf "-%d" flow)
        ~epsilon:0.
    in
    ignore
      (Scenario.connect ?sketch path ~flow ~at ~sender:tcp_pr
         ~config:(Scenario.bounded_config 600));
    path
  in
  let first = start ~at:0. 0 in
  Sim.Engine.run engine ~until:120.;
  ignore (start ~at:120. 1);
  let measured () =
    Sim.Engine.run engine ~until:240.;
    (* The analytics must actually have seen the reordering they are
       billed for. *)
    Option.iter
      (fun sketch ->
        let detected = Obs.Reorder_sketch.detected sketch in
        if detected <= 100 then
          failwith
            (Printf.sprintf
               "analytics: the sketch detected %d reorderings, want > 100"
               detected))
      sketch
  in
  { network = first.Scenario.network; measured }

(* Unbounded transfer over a jittered two-hop chain: sustained traffic
   with per-packet extra delay, exercising the timer machinery. The
   first three simulated seconds (slow start plus pool filling) are the
   warmup; the remaining twelve are measured. *)
let jitter_scenario () =
  let engine = Sim.Engine.create () in
  let path = Scenario.jitter_chain engine (Sim.Rng.create 7) in
  ignore
    (Scenario.connect path ~flow:0 ~at:0. ~sender:tcp_pr
       ~config:Tcp.Config.default);
  Sim.Engine.run engine ~until:3.;
  { network = path.Scenario.network;
    measured = (fun () -> Sim.Engine.run engine ~until:15.) }

(* Closed-loop flow churn at 300 slots on Experiments.Scale's churn
   shape: the one scenario whose per-hop bill includes transfer set-up.
   The warmup runs 4 s, past the 1 s ramp, so the slots have run their
   first transfers (which build their connections); the measured 4 s
   are the steady state, where every transfer starts on its slot's
   connection reset in place. *)
let churn_scenario () =
  let flows = 300 and warmup = 4. and duration = 8. in
  let engine = Sim.Engine.create () in
  let network, workload =
    Experiments.Scale.spawn engine ~seed:0 ~sender:tcp_pr ~flows ~duration
  in
  Sim.Engine.run engine ~until:warmup;
  let started = Workload.Flow_churn.transfers_started workload in
  let measured () =
    Sim.Engine.run engine ~until:duration;
    let transfers = Workload.Flow_churn.transfers_started workload - started in
    if transfers < flows then
      failwith
        (Printf.sprintf "churn: %d transfers started in the measured phase, \
                         want >= %d" transfers flows)
  in
  { network; measured }

let scenarios =
  [ ("dumbbell", dumbbell_scenario ~hoststack:false);
    ("lattice", lattice_scenario ~analytics:false);
    ("jitter-chain", jitter_scenario);
    ("hoststack", dumbbell_scenario ~hoststack:true);
    ("analytics", lattice_scenario ~analytics:true);
    ("churn", churn_scenario) ]

let run_all () = List.map (fun (name, f) -> measure name f) scenarios

let pp_measurement m =
  Printf.printf
    "  %-14s %7.3f s  %10.1f KB allocated  %5d minor GCs  %8d packets  %7.1f B/packet\n%!"
    m.scenario m.wall_s
    (m.allocated_bytes /. 1024.)
    m.minor_collections m.packets m.bytes_per_packet

(* ------------------------------------------------------------------ *)
(* Allocation per ACK                                                  *)
(* ------------------------------------------------------------------ *)

type ack_measurement = {
  variant : string;
  acks : int;
  ack_allocated_bytes : float;
  bytes_per_ack : float;
}

(* Isolated [on_ack] churn per variant: an in-order ACK stream fed
   straight into the packed sender, no network, one reusable
   [Action_buffer] cleared per event — the exact shape [Connection]
   drives. The measured loop constructs the ack record itself (the same
   8-word record the receiver path builds), identical to the loop that
   produced the boxed-float-core numbers in EXPERIMENTS.md (564.7 /
   577.8 / 3936.1 B/ack), so the quotients share the harness constant
   and their difference is the handler's own allocation. 1000 warmup
   ACKs grow the buffer and any lazy sender state before the measured
   window. *)
let ack_churn = 50_000

let measure_acks (name, (module M : Tcp.Sender.S)) =
  let config =
    { Tcp.Config.default with
      Tcp.Config.initial_cwnd = 8.;
      total_segments = None }
  in
  let sender = Tcp.Sender.pack (module M) config in
  let buf = Tcp.Action_buffer.create () in
  Tcp.Sender.start sender ~now:0. buf;
  let feed i =
    Tcp.Action_buffer.clear buf;
    let ack =
      { Tcp.Types.next = i + 1;
        sacks = [];
        dsack = None;
        for_seq = i;
        for_retx = false;
        serial = i;
        rwnd = Tcp.Types.rwnd_unbounded }
    in
    Tcp.Sender.on_ack sender ~now:(1e-4 *. float_of_int (i + 1)) ack buf
  in
  for i = 0 to 999 do
    feed i
  done;
  Gc.full_major ();
  let bytes0 = Gc.allocated_bytes () in
  for i = 1000 to 1000 + ack_churn - 1 do
    feed i
  done;
  (* flush the minor arena before reading the counter; see [measure] *)
  Gc.minor ();
  let delta = Gc.allocated_bytes () -. bytes0 in
  { variant = name;
    acks = ack_churn;
    ack_allocated_bytes = delta;
    bytes_per_ack = delta /. float_of_int ack_churn }

let run_acks () = List.map measure_acks Experiments.Variants.all

let pp_ack_measurement m =
  Printf.printf "  %-12s %8.1f B/ack\n%!" m.variant m.bytes_per_ack
