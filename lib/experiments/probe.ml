let cwnd_series engine connection ~interval ~until =
  (* A NaN or infinite step, like a NaN horizon, would schedule no
     sample at all and return an empty series without complaint. *)
  if not (interval > 0. && Float.is_finite interval) then
    invalid_arg "Probe.cwnd_series: interval must be positive and finite";
  if Float.is_nan until then invalid_arg "Probe.cwnd_series: until is NaN";
  let series = Stats.Timeseries.create () in
  let rec schedule time =
    if time <= until then
      Sim.Engine.schedule_at engine ~time (fun () ->
          Stats.Timeseries.record series ~time
            (Tcp.Connection.cwnd connection);
          schedule (time +. interval))
  in
  schedule (Sim.Engine.now engine +. interval);
  series
