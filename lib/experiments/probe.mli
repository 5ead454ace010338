(** Periodic sampling of connection state during a run, for cwnd
    traces. *)

(** [cwnd_series engine connection ~interval ~until] schedules sampling
    of the congestion window every [interval] seconds up to [until];
    the series fills as the engine runs. Raises [Invalid_argument]
    unless [interval] is positive and finite, or when [until] is
    NaN. *)
val cwnd_series :
  Sim.Engine.t ->
  Tcp.Connection.t ->
  interval:float ->
  until:float ->
  Stats.Timeseries.t
