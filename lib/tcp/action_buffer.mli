(** Reusable flat buffer of sender {!Action}s.

    Sender handlers write their requested effects into a buffer owned
    (and cleared per event) by the connection, instead of returning an
    [Action.t list]. Emission and draining are int-array operations:
    after warm-up, no handler invocation allocates. Timer delays are
    carried as {!Sim.Time.t} integer nanoseconds end to end — see
    DESIGN.md §15 for the may/must-not-allocate contract.

    The buffer is single-owner scratch state: emit, drain, [clear] —
    never retain indices across a [clear]. *)

type t

(** [create ()] returns an empty buffer of 16 action slots; the buffer
    grows by doubling, so steady state never reallocates. *)
val create : unit -> t

(** Actions currently buffered. *)
val length : t -> int

(** Resets [length] to 0 without shrinking storage. *)
val clear : t -> unit

(** {2 Emitters} (sender side — allocation-free after warm-up) *)

(** [send t ~seq] requests transmission of segment [seq]. *)
val send : t -> seq:int -> unit

(** [send_retx t ~seq] requests retransmission of segment [seq]. *)
val send_retx : t -> seq:int -> unit

(** [set_timer_ns t ~key ~delay] requests (re-)arming timer [key],
    [delay] nanoseconds from now. *)
val set_timer_ns : t -> key:int -> delay:Sim.Time.t -> unit

(** [set_timer t ~key ~delay] — seconds-flavoured {!set_timer_ns}; the
    float-to-ns conversion inlines into the caller. *)
val set_timer : t -> key:int -> delay:float -> unit

(** [cancel_timer t ~key] requests disarming timer [key]. *)
val cancel_timer : t -> key:int -> unit

(** {2 Drain} (connection side)

    Raw per-slot reads, all int-typed. Valid for [0 <= i < length t]
    and only until the next [clear]. *)

(** Opcode of slot [i]: one of the [op_*] constants below. *)
val op : t -> int -> int

val op_send : int

val op_send_retx : int

val op_set_timer : int

val op_cancel_timer : int

(** Sequence number (sends) or timer key (timers) of slot [i]. *)
val arg : t -> int -> int

(** Timer delay of slot [i] ([op_set_timer] slots only; 0 otherwise). *)
val delay_ns : t -> int -> Sim.Time.t

(** {2 Materialisation} (probes and tests — allocates) *)

(** Slot [i] as an {!Action.t}. *)
val action : t -> int -> Action.t

val to_list : t -> Action.t list

(** [to_list_from t start] is the slice [start..length-1] — the actions
    one event appended after an earlier high-water mark [start]. *)
val to_list_from : t -> int -> Action.t list

(** [collect f] runs emitter [f] on a fresh scratch buffer and returns
    the result as a list: the unit-test adapter for the buffer-writing
    handler signature. *)
val collect : (t -> unit) -> Action.t list
