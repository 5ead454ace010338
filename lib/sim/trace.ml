(* Handlers are stored most-recent-first so registration is O(1) (the
   seed appended with [@], copying the whole list per registration);
   [emit] walks the list back-to-front so handlers still run in
   registration order, without building a reversed copy per event. *)
type 'a tap = { mutable handlers_rev : ('a -> unit) list }

let tap () = { handlers_rev = [] }

let on t handler = t.handlers_rev <- handler :: t.handlers_rev

let armed t = t.handlers_rev <> []

let rec emit_rev event = function
  | [] -> ()
  | handler :: rest ->
    emit_rev event rest;
    handler event

let emit t event = emit_rev event t.handlers_rev
