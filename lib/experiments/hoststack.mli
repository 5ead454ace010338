(** Host-stack buffer-pressure scenario (extension).

    One bounded transfer over the Fig. 2 dumbbell with the host-stack
    realism layer enabled: a finite receive socket buffer with DRS
    autotuning, a paced application reader, and GRO coalescing on the
    sink's ingress links. Sweeping the application read rate below the
    path rate moves the binding constraint from the congestion window
    to the advertised window and exercises zero-window persistence and
    window-reopen announcements. *)

type point = {
  variant : string;
  app_rate : float;  (** application reads per second; 0 = instant *)
  completion_s : float;  (** transfer completion time; [nan] = stuck *)
  zero_windows : int;
  window_updates : int;
  buf_drops : int;
  autotune_grows : int;
  retransmissions : int;
}

(** [sweep ()] runs one transfer of [total_segments] (default 80) per
    variant (TCP-PR, TCP-SACK, NewReno) and application read rate (an
    instant reader, then 120, 60, 30 and 10 segments/s), each with a
    16-segment receive buffer autotuned up to 24 segments and GRO
    coalescing (1 ms / 4 segments) on the sink's ingress links. *)
val sweep : ?total_segments:int -> ?jobs:int -> unit -> point list

(** Completion time (s) per variant and application rate. *)
val to_table : point list -> Stats.Table.t
