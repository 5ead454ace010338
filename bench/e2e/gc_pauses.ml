(* GC pause accounting from the runtime's own event ring
   ([Runtime_events], OCaml 5 stdlib).

   Single domain: every runtime phase runs on the mutator's thread, so a
   pause is a maximal interval during which at least one phase is open
   (nested phases are merged). The ring is polled from a GC alarm (end
   of every major cycle) and once more at [stop]; events overwritten
   before a poll are counted in [lost], and a non-zero count means the
   pause numbers are incomplete. Timestamps share the monotonic clock
   {!Spans.now} reads. *)

type pauses = {
  mutable lost : int;
  mutable open_phases : int;
  mutable opened_at : int;
  mutable list : (int * int) list; (* (start ns, duration ns) *)
}

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  alarm : Gc.alarm;
  pauses : pauses;
}

let start () =
  Runtime_events.start ();
  let p = { lost = 0; open_phases = 0; opened_at = 0; list = [] } in
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  let runtime_begin _ x _ =
    if p.open_phases = 0 then p.opened_at <- ts x;
    p.open_phases <- p.open_phases + 1
  in
  let runtime_end _ x _ =
    if p.open_phases > 0 then begin
      p.open_phases <- p.open_phases - 1;
      if p.open_phases = 0 then p.list <- (p.opened_at, ts x - p.opened_at) :: p.list
    end
  in
  let lost_events _ n = p.lost <- p.lost + n in
  let cursor = Runtime_events.create_cursor None in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
  { cursor; callbacks; alarm = Gc.create_alarm poll; pauses = p }

let stop t =
  ignore (Runtime_events.read_poll t.cursor t.callbacks None);
  Gc.delete_alarm t.alarm;
  Runtime_events.free_cursor t.cursor;
  Runtime_events.pause ()

let lost t = t.pauses.lost

(* Durations of the pauses that started inside one of [windows]
   ([(start ns, duration ns)] intervals). *)
let within t windows =
  List.filter_map
    (fun (s, d) ->
      if List.exists (fun (w0, wd) -> s >= w0 && s < w0 + wd) windows then
        Some d
      else None)
    t.pauses.list
