(** Binds a sender variant and the receiver to two endpoint nodes of a
    {!Net.Network}, executing sender {!Action}s against the engine.

    Routing is per-packet: [route_data] (forward path) and [route_ack]
    (reverse path) are sampled on every transmission, which is how
    multi-path routing — and hence persistent reordering of both data
    and acknowledgements — enters the system. The returned arrays are
    shared, never consumed: for single-path scenarios pass constant
    functions returning one preallocated array, so the send path
    allocates nothing. *)

type t

(** [create network ~flow ~src ~dst ~sender ~config ~route_data
    ~route_ack ()] wires a connection but does not start it.

    @param probe optional instrumentation tap (see {!Probe}); when
    omitted or unarmed the connection pays no instrumentation cost.
    @param sketch optional shared data-plane reorder detector (see
    {!Obs.Reorder_sketch}): every data arrival at the sink — including
    duplicates and socket-buffer drops, which a switch cannot tell
    apart — is fed to it before the host stack classifies the segment.
    @param on_finish called once, when a bounded transfer completes
    (from within the completing event); used by closed-loop workloads
    to start the flow's successor.
    @param sender the variant, e.g. [Sack_core.sender Sack_core.create]
    (plain TCP-SACK); [Experiments.Variants] names all of them.
    @param route_data returns the forward route: node ids after [src],
    ending with [dst].
    @param route_ack returns the reverse route: node ids after [dst],
    ending with [src]. *)
val create :
  ?probe:Probe.t ->
  ?sketch:Obs.Reorder_sketch.t ->
  ?on_finish:(unit -> unit) ->
  Net.Network.t ->
  flow:int ->
  src:Net.Node.t ->
  dst:Net.Node.t ->
  sender:(module Sender.S) ->
  config:Config.t ->
  route_data:(unit -> int array) ->
  route_ack:(unit -> int array) ->
  unit ->
  t

(** [start t ~at] schedules connection start at absolute time [at]. *)
val start : t -> at:float -> unit

(** [reusable t] is true once [t]'s bounded transfer has finished and
    nothing of it is pending: no end-of-instant flush of the sender's
    actions, no deferred acknowledgement, and no armed timer cell
    (sender, delayed-ACK or application-drain). *)
val reusable : t -> bool

(** [reuse t ~flow ~config] readies a {!reusable} connection for
    another transfer between the same endpoints, in place of a fresh
    {!create} with the same probe, sketch, [on_finish], sender variant
    and routes: [flow] and [config] replace the old ones, the sender
    ({!Sender.S.reset}), the receiver ({!Receiver.reset}) and the
    connection's counters start over, the old flow id is detached from
    both endpoints and the connection's handlers are attached under
    [flow]. From then on the connection behaves as the fresh one would;
    start it with {!start}. Timer cells, the action buffer and grown
    sender and receiver storage are kept, so nothing is allocated
    beyond a finite socket buffer's. Raises [Invalid_argument] unless
    [reusable t]. *)
val reuse : t -> flow:int -> config:Config.t -> unit

(** Segments delivered in order at the receiver. *)
val received_segments : t -> int

(** Bytes delivered in order at the receiver ([mss] per segment). *)
val received_bytes : t -> int

(** Current congestion window of the sender. *)
val cwnd : t -> float

(** True once a bounded transfer is fully acknowledged. *)
val finished : t -> bool

(** Time at which the transfer finished, if it has. *)
val finished_at : t -> float option

(** Data packets handed to the network by this sender (including
    retransmissions). *)
val data_packets_sent : t -> int

(** Duplicate data arrivals observed by the receiver. *)
val receiver_duplicates : t -> int

(** Segments currently in the receiver's out-of-order buffer. *)
val receiver_buffered : t -> int

(** Reordering-depth histogram of the receiver (see
    {!Receiver.reorder_depth}). *)
val receiver_reorder_depth : t -> Obs.Metrics.Histogram.t

(** Streaming RFC 4737 reordering metrics of the receiver (see
    {!Receiver.reorder}). *)
val receiver_reorder : t -> Obs.Reorder.t

(** The receiver's finite socket buffer, when configured (see
    {!Rcv_buffer}); [None] with the host-stack layer disabled. *)
val receiver_buffer : t -> Rcv_buffer.t option

(** Segments refused by the finite socket buffer (0 when disabled). *)
val receiver_buf_drops : t -> int

(** Zero-window advertisements issued by the receiver (0 when
    disabled). *)
val receiver_zero_windows : t -> int

(** Window-reopen announcements sent by the application-drain timer. *)
val window_updates_sent : t -> int

(** Sender timer firings executed (retransmission and variant
    timers). *)
val timer_fires : t -> int

(** Delayed acknowledgements flushed by the delayed-ACK timer rather
    than by a subsequent arrival. *)
val delack_timeouts : t -> int

(** Sender diagnostic counters (see {!Sender.S.metrics}). *)
val sender_metrics : t -> (string * float) list
