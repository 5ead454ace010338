module Scenario = Experiments.Scenario

type figure =
  | Fig2
  | Fig3
  | Fig6
  | Hoststack

type case = {
  figure : figure;
  variant : string * (module Tcp.Sender.S);
}

let figure_name = function
  | Fig2 -> "fig2"
  | Fig3 -> "fig3"
  | Fig6 -> "fig6"
  | Hoststack -> "hoststack"

let id case =
  figure_name case.figure ^ "__"
  ^ Experiments.Variants.canonical (fst case.variant)

let run ?coalesce ~config figure sender =
  let engine = Sim.Engine.create () in
  let path =
    match figure with
    | Fig2 -> Scenario.dumbbell engine
    | Fig3 -> Scenario.dumbbell ~bandwidth_scale:0.5 engine
    | Fig6 ->
      (* epsilon = 0: all paths equiprobable, maximal persistent
         reordering — the Fig. 6 regime. *)
      Scenario.eps_path (Scenario.lattice engine) (Sim.Rng.create 42)
        ~epsilon:0.
    | Hoststack -> Scenario.hoststack engine
  in
  Option.iter (Scenario.coalesce_sink path) coalesce;
  let probe = Tcp.Probe.create () in
  let buffer = Buffer.create 4096 in
  Sim.Trace.on probe (fun event ->
      Buffer.add_string buffer (Tcp.Probe.to_line event);
      Buffer.add_char buffer '\n');
  let connection =
    match figure with
    | Fig2 | Fig3 ->
      (* The variant under test races the paper's TCP-SACK competitor
         for the bottleneck, as in the Fig. 2/3 fairness runs. *)
      Scenario.race ~probe path ~flow:0 ~at:0. ~sender ~config
    | Fig6 | Hoststack ->
      Scenario.connect ~probe path ~flow:0 ~at:0. ~sender ~config
  in
  Sim.Engine.run engine ~until:60.;
  (Buffer.contents buffer, connection)

(* Short bounded transfers: long enough to include slow start, loss
   recovery and (on the lattice) persistent reordering, short enough
   that the whole suite recomputes in well under a second. The
   host-stack case adds a finite, autotuned receive buffer drained by a
   reader slower than the bottleneck: rwnd clamping, buffer pressure,
   zero-window persist/reopen and coalesced bursts in one trace. *)
let compute case =
  let segments = 80 in
  let config =
    match case.figure with
    | Fig2 | Fig3 | Fig6 -> Scenario.bounded_config segments
    | Hoststack -> Scenario.hoststack_config ~app_rate:10. segments
  in
  fst (run ~config case.figure (snd case.variant))

let cases =
  let paired = [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ] in
  let with_figure figure variants =
    List.map (fun variant -> { figure; variant }) variants
  in
  with_figure Fig2 paired @ with_figure Fig3 paired
  @ with_figure Fig6 Experiments.Variants.all
  @ with_figure Hoststack [ Experiments.Variants.tcp_pr ]

let digest_of_trace trace = Digest.to_hex (Digest.string trace)

let compute_all ~jobs =
  Experiments.Runner.parallel_map ~jobs
    (fun case -> (id case, compute case))
    cases

let digest_file dir = Filename.concat dir "DIGESTS"

let trace_file dir case_id = Filename.concat dir (case_id ^ ".trace")

let write ~dir ~jobs =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let results = compute_all ~jobs in
  let out = open_out (digest_file dir) in
  List.iter
    (fun (case_id, trace) ->
      let file = open_out (trace_file dir case_id) in
      output_string file trace;
      close_out file;
      Printf.fprintf out "%s  %s\n" (digest_of_trace trace) case_id)
    results;
  close_out out

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_digests dir =
  let path = digest_file dir in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter_map (fun line ->
           match String.index_opt line ' ' with
           | Some i ->
             Some
               ( String.trim (String.sub line i (String.length line - i)),
                 String.sub line 0 i )
           | None -> None)

(* First differing line between the stored trace and the recomputed
   one: the readable core of a golden failure report. *)
let first_diff ~expected ~actual =
  let e = String.split_on_char '\n' expected in
  let a = String.split_on_char '\n' actual in
  let rec scan n e a =
    match (e, a) with
    | [], [] -> Printf.sprintf "traces differ but no line does (line %d)" n
    | x :: _, [] ->
      Printf.sprintf "line %d: recomputed trace ends; stored has %S" n x
    | [], y :: _ ->
      Printf.sprintf "line %d: stored trace ends; recomputed has %S" n y
    | x :: e', y :: a' ->
      if String.equal x y then scan (n + 1) e' a'
      else Printf.sprintf "line %d:\n  stored:     %s\n  recomputed: %s" n x y
  in
  scan 1 e a

let verify ~dir ~jobs =
  let stored = load_digests dir in
  compute_all ~jobs
  |> List.map (fun (case_id, trace) ->
         match List.assoc_opt case_id stored with
         | None -> (case_id, `Missing)
         | Some digest when String.equal digest (digest_of_trace trace) ->
           (case_id, `Ok)
         | Some _ ->
           let file = trace_file dir case_id in
           let detail =
             if Sys.file_exists file then
               first_diff ~expected:(read_file file) ~actual:trace
             else "digest differs and stored trace file is missing"
           in
           (case_id, `Mismatch detail))
