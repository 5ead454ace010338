(** Registry collectors for the simulator's instrumented layers.

    Components own their metrics (see {!Obs.Metrics}); these collectors
    run once after a simulation and lift them into an {!Obs.Registry}
    under stable dotted names, ready for {!Obs.Export}, folding
    per-component metrics together with the [Obs.Metrics] [merge_into]
    functions. Collect each run into its own registry: a parallel sweep
    renders one registry per job, in input order, so its output does
    not depend on [--jobs]. *)

(** [network registry net ~now] aggregates link, queue, node and pool
    metrics of [net] under ["net"]: transmission and drop counters
    ([.tx.packets], [.tx.bytes], [.drops.queue], [.drops.early],
    [.drops.loss], [.queue.enqueued], [.stranded]), the merged
    queue-occupancy histogram ([.queue.occupancy]), link
    utilisations against horizon [now] ([.util.max], [.util.mean]) and
    packet-pool population ([.pool.created], [.pool.outstanding],
    [.pool.in_pool]). *)
val network : Obs.Registry.t -> Net.Network.t -> now:float -> unit

(** [connection registry c] lifts one connection's counters under
    ["conn"]: [.sent], [.timer_fires], [.delack_timeouts], [.received],
    [.duplicates], the receiver's [.reorder_depth] histogram, and
    every sender diagnostic as [.sender.<key>] (including
    [.sender.cwnd]). When the arrival stream had late arrivals, the
    streaming RFC 4737 rows join them:
    [.reorder.arrivals], [.reorder.reordered], [.reorder.late_retx],
    [.reorder.extent_capped], [.reorder.density] and the
    [.reorder.extent] / [.reorder.late_offset] /
    [.reorder.n_reordering] histograms — reordering-free runs render
    byte-identically to before. *)
val connection : Obs.Registry.t -> Tcp.Connection.t -> unit

(** [reorder_sketch registry sk] lifts a data-plane reorder detector's
    counters under ["reorder_sketch"]: [.observed], [.detected],
    [.memory_words]. Rendered only when the sketch flagged at least one
    reordered arrival. *)
val reorder_sketch : Obs.Registry.t -> Obs.Reorder_sketch.t -> unit
