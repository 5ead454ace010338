let cap_for ~cap ~span =
  let c = ref cap in
  while span > !c do
    c := 2 * !c
  done;
  !c

(* Slots shift when the mask changes, so every live seq is re-placed. *)
let regrow_floats a ~cap ~lo ~hi =
  let omask = Float.Array.length a - 1 and nmask = cap - 1 in
  let b = Float.Array.make cap 0. in
  for seq = lo to hi - 1 do
    Float.Array.unsafe_set b (seq land nmask)
      (Float.Array.unsafe_get a (seq land omask))
  done;
  b

let regrow_bytes a ~cap ~lo ~hi =
  let omask = Bytes.length a - 1 and nmask = cap - 1 in
  let b = Bytes.make cap '\000' in
  for seq = lo to hi - 1 do
    Bytes.unsafe_set b (seq land nmask) (Bytes.unsafe_get a (seq land omask))
  done;
  b
