(* Named metric registry.

   A registry is per-run state: every simulation (or grid point) builds
   its own, and components record into it (or are lifted into it by a
   collector at snapshot time). Lookup allocates on the miss path only;
   the returned handles are the same mutable records on every call, so
   hot code resolves its metric once and records through the handle. *)

type metric =
  | Counter of Metrics.Counter.t
  | Gauge of Metrics.Gauge.t
  | Histogram of Metrics.Histogram.t
  | Value of float ref

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Value _ -> "value"

let clash name ~wanted found =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %S is a %s, not a %s" name
       (kind_name found) wanted)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter c) -> c
  | Some other -> clash name ~wanted:"counter" other
  | None ->
    let c = Metrics.Counter.create () in
    Hashtbl.replace t.metrics name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Gauge g) -> g
  | Some other -> clash name ~wanted:"gauge" other
  | None ->
    let g = Metrics.Gauge.create () in
    Hashtbl.replace t.metrics name (Gauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) -> h
  | Some other -> clash name ~wanted:"histogram" other
  | None ->
    let h = Metrics.Histogram.create () in
    Hashtbl.replace t.metrics name (Histogram h);
    h

let value_ref t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Value v) -> v
  | Some other -> clash name ~wanted:"value" other
  | None ->
    let v = ref 0. in
    Hashtbl.replace t.metrics name (Value v);
    v

let set_value t name v = value_ref t name := v

let value t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Value v) -> !v
  | Some other -> clash name ~wanted:"value" other
  | None -> 0.

let find t name = Hashtbl.find_opt t.metrics name

let mem t name = Hashtbl.mem t.metrics name

let length t = Hashtbl.length t.metrics

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.metrics []
  |> List.sort String.compare
