type t = { mutable samples_rev : (float * float) list; mutable count : int }

let create () = { samples_rev = []; count = 0 }

let record t ~time value =
  (match t.samples_rev with
  | (last_time, _) :: _ when time < last_time ->
    invalid_arg "Timeseries.record: time went backwards"
  | _ -> ());
  t.samples_rev <- (time, value) :: t.samples_rev;
  t.count <- t.count + 1

let length t = t.count

let is_empty t = t.count = 0

let to_list t = List.rev t.samples_rev

let last t = match t.samples_rev with [] -> None | sample :: _ -> Some sample
