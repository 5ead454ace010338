(* Median and quartiles of a small sample of repeated measurements.

   The quartiles follow Python's [statistics.quantiles (data, n=4)]
   default ("exclusive") method, clamp included, so a spread printed here
   is the same number an external script computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [(q1, q2, q3)]; a single sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.quartiles: empty";
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* Rows of equal length, one per repetition: the sum over positions of
   the smallest value at each. [None] without rows or when their
   lengths differ. *)
let sum_of_minima rows =
  match rows with
  | [] -> None
  | first :: rest ->
    if List.exists (fun a -> Array.length a <> Array.length first) rest then None
    else begin
      let sum = ref 0 in
      Array.iteri
        (fun i x -> sum := !sum + List.fold_left (fun m a -> min m a.(i)) x rest)
        first;
      Some !sum
    end

(* Interquartile range as a share of the median (0 for a zero median). *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med
