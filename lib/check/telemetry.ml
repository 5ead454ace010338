(* Collectors lifting component-owned metrics into a registry snapshot.

   Components own their counters and histograms (a link its occupancy
   histogram, a receiver its reorder-depth histogram); a collector runs
   once, after the simulation, and aggregates them under stable names.
   Keeping collection out of the hot path means the simulation records
   into bare int-backed metrics and only the snapshot pays for hashing
   and name construction. *)

let network registry net ~now =
  let prefix = "net" in
  let add_counter name v =
    Obs.Metrics.Counter.add (Obs.Registry.counter registry (prefix ^ name)) v
  in
  let links = Net.Network.links net in
  add_counter ".links" (List.length links);
  let tx_packets = ref 0
  and tx_bytes = ref 0
  and queue_drops = ref 0
  and early_drops = ref 0
  and losses = ref 0
  and enqueued = ref 0 in
  let util_max = ref 0.
  and util_sum = ref 0. in
  let occupancy = Obs.Registry.histogram registry (prefix ^ ".queue.occupancy") in
  List.iter
    (fun link ->
      tx_packets := !tx_packets + Net.Link.transmitted_packets link;
      tx_bytes := !tx_bytes + Net.Link.transmitted_bytes link;
      queue_drops := !queue_drops + Net.Link.queue_drops link;
      early_drops := !early_drops + Net.Link.queue_early_drops link;
      losses := !losses + Net.Link.injected_losses link;
      enqueued := !enqueued + Net.Link.queue_enqueued link;
      let utilisation =
        if now > 0. then Net.Link.busy_time link /. now else 0.
      in
      if utilisation > !util_max then util_max := utilisation;
      util_sum := !util_sum +. utilisation;
      Obs.Metrics.Histogram.merge_into ~into:occupancy
        (Net.Link.queue_occupancy link))
    links;
  add_counter ".tx.packets" !tx_packets;
  add_counter ".tx.bytes" !tx_bytes;
  add_counter ".drops.queue" !queue_drops;
  add_counter ".drops.early" !early_drops;
  add_counter ".drops.loss" !losses;
  add_counter ".queue.enqueued" !enqueued;
  let stranded = ref 0 in
  for id = 0 to Net.Network.node_count net - 1 do
    stranded := !stranded + Net.Node.stranded (Net.Network.node net id)
  done;
  add_counter ".stranded" !stranded;
  (* GRO rows appear only when some link actually coalesces, so default
     runs produce a byte-identical report. *)
  List.iter
    (fun link ->
      if Net.Link.coalescing_enabled link then
        Obs.Metrics.Histogram.merge_into
          ~into:(Obs.Registry.histogram registry (prefix ^ ".gro.bursts"))
          (Net.Link.coalesced_bursts link))
    links;
  Obs.Registry.set_value registry (prefix ^ ".util.max") !util_max;
  Obs.Registry.set_value registry
    (prefix ^ ".util.mean")
    (match links with
    | [] -> 0.
    | _ -> !util_sum /. float_of_int (List.length links));
  let pool = Net.Network.pool net in
  Obs.Metrics.Counter.merge_into
    ~into:(Obs.Registry.counter registry (prefix ^ ".pool.created"))
    (Net.Packet_pool.created_counter pool);
  Obs.Metrics.Gauge.merge_into
    ~into:(Obs.Registry.gauge registry (prefix ^ ".pool.outstanding"))
    (Net.Packet_pool.outstanding_gauge pool);
  Obs.Metrics.Gauge.merge_into
    ~into:(Obs.Registry.gauge registry (prefix ^ ".pool.in_pool"))
    (Net.Packet_pool.in_pool_gauge pool)

let connection registry c =
  let prefix = "conn" in
  let set_counter name v =
    Obs.Metrics.Counter.add (Obs.Registry.counter registry (prefix ^ name)) v
  in
  set_counter ".sent" (Tcp.Connection.data_packets_sent c);
  set_counter ".timer_fires" (Tcp.Connection.timer_fires c);
  set_counter ".delack_timeouts" (Tcp.Connection.delack_timeouts c);
  set_counter ".received" (Tcp.Connection.received_segments c);
  set_counter ".duplicates" (Tcp.Connection.receiver_duplicates c);
  Obs.Metrics.Histogram.merge_into
    ~into:(Obs.Registry.histogram registry (prefix ^ ".reorder_depth"))
    (Tcp.Connection.receiver_reorder_depth c);
  (* RFC 4737 rows appear only when the arrival stream actually had
     late arrivals, so reordering-free runs render byte-identically. *)
  let ro = Tcp.Connection.receiver_reorder c in
  if Obs.Reorder.reordered ro + Obs.Reorder.late_retx ro > 0 then begin
    set_counter ".reorder.arrivals" (Obs.Reorder.arrivals ro);
    set_counter ".reorder.reordered" (Obs.Reorder.reordered ro);
    set_counter ".reorder.late_retx" (Obs.Reorder.late_retx ro);
    set_counter ".reorder.extent_capped" (Obs.Reorder.extent_capped ro);
    Obs.Registry.set_value registry
      (prefix ^ ".reorder.density")
      (Obs.Reorder.density ro);
    Obs.Metrics.Histogram.merge_into
      ~into:(Obs.Registry.histogram registry (prefix ^ ".reorder.extent"))
      (Obs.Reorder.extent ro);
    Obs.Metrics.Histogram.merge_into
      ~into:(Obs.Registry.histogram registry (prefix ^ ".reorder.late_offset"))
      (Obs.Reorder.late_offset ro);
    Obs.Metrics.Histogram.merge_into
      ~into:
        (Obs.Registry.histogram registry (prefix ^ ".reorder.n_reordering"))
      (Obs.Reorder.n_reordering ro)
  end;
  (* Host-stack rows appear only when the finite receive buffer is
     configured, keeping default-run reports byte-identical. *)
  (match Tcp.Connection.receiver_buffer c with
  | None -> ()
  | Some buf ->
    set_counter ".rcvbuf.drops" (Tcp.Rcv_buffer.drops buf);
    set_counter ".rcvbuf.zero_windows" (Tcp.Rcv_buffer.zero_windows buf);
    set_counter ".rcvbuf.autotune_grows" (Tcp.Rcv_buffer.autotune_grows buf);
    set_counter ".rcvbuf.window_updates"
      (Tcp.Connection.window_updates_sent c);
    Obs.Registry.set_value registry
      (prefix ^ ".rcvbuf.capacity_segments")
      (float_of_int (Tcp.Rcv_buffer.capacity_segments buf));
    Obs.Metrics.Histogram.merge_into
      ~into:(Obs.Registry.histogram registry (prefix ^ ".rcvbuf.occupancy"))
      (Tcp.Rcv_buffer.occupancy buf));
  Obs.Registry.set_value registry (prefix ^ ".sender.cwnd")
    (Tcp.Connection.cwnd c);
  List.iter
    (fun (key, v) ->
      Obs.Registry.set_value registry (prefix ^ ".sender." ^ key) v)
    (Tcp.Connection.sender_metrics c)

let reorder_sketch registry sk =
  let prefix = "reorder_sketch" in
  (* Rendered only when the detector both saw traffic and flagged
     something — an armed-but-quiet sketch leaves the report alone. *)
  if Obs.Reorder_sketch.detected sk > 0 then begin
    let set_counter name v =
      Obs.Metrics.Counter.add (Obs.Registry.counter registry (prefix ^ name)) v
    in
    set_counter ".observed" (Obs.Reorder_sketch.observed sk);
    set_counter ".detected" (Obs.Reorder_sketch.detected sk);
    set_counter ".memory_words" (Obs.Reorder_sketch.memory_words sk)
  end
