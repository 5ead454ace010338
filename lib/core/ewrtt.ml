type t = {
  mutable alpha : float;
  mutable beta : float;
  (* Two-slot [floatarray]: slot 0 is the envelope ([on_sample] writes
     it once per ACK, and a [mutable float] field in this mixed record
     would box every write); slot 1 is the Newton iterate scratch ([ref]
     cells and loop-carried floats heap-allocate per iteration). *)
  ewrtt : floatarray;
  mutable has_sample : bool;
}

(* The paper's Linux implementation runs two Newton iterations; the
   envelope starts at 1 s until the first RTT sample replaces it. *)
let newton_iterations = 2

let initial_ewrtt = 1.0

let reset t config =
  t.alpha <- config.Tcp.Config.pr_alpha;
  t.beta <- config.Tcp.Config.pr_beta;
  Float.Array.fill t.ewrtt 0 2 initial_ewrtt;
  t.has_sample <- false

let create config =
  Tcp.Config.validate config;
  let t =
    { alpha = 0.; beta = 0.; ewrtt = Float.Array.make 2 0.; has_sample = false }
  in
  reset t config;
  t

(* Newton's method on f(x) = x^cwnd - alpha, started at x = 1:
   x <- ((cwnd - 1) / cwnd) x + alpha / (cwnd x^(cwnd - 1)),
   exactly the loop in the paper's footnote 5. *)
let newton ~alpha ~cwnd ~iterations =
  assert (cwnd >= 1.);
  let x = ref 1. in
  for _ = 1 to iterations do
    x := (((cwnd -. 1.) /. cwnd) *. !x) +. (alpha /. (cwnd *. (!x ** (cwnd -. 1.))))
  done;
  !x

(* Same iteration as [newton] (identical float operations, in order),
   but the iterate lives in the scratch slot instead of a [ref]: this
   runs once per ACK, and the [ref] version allocates the cell plus a
   box per iteration. *)
let decay_factor t ~cwnd =
  let cwnd = if cwnd > 1. then cwnd else 1. in
  let f = t.ewrtt in
  Float.Array.unsafe_set f 1 1.;
  for _ = 1 to newton_iterations do
    let x = Float.Array.unsafe_get f 1 in
    Float.Array.unsafe_set f 1
      ((((cwnd -. 1.) /. cwnd) *. x)
      +. (t.alpha /. (cwnd *. (x ** (cwnd -. 1.)))))
  done;
  Float.Array.unsafe_get f 1

let exact_decay_factor t ~cwnd = exp (log t.alpha /. Float.max cwnd 1.)

let on_sample t ~cwnd ~sample =
  assert (sample >= 0.);
  if not t.has_sample then begin
    (* Like Jacobson's srtt, the envelope starts from the first real
       measurement; the initial value only covers the period before
       any ACK has arrived. *)
    t.has_sample <- true;
    Float.Array.unsafe_set t.ewrtt 0 sample
  end
  else begin
    let decayed = decay_factor t ~cwnd *. Float.Array.unsafe_get t.ewrtt 0 in
    Float.Array.unsafe_set t.ewrtt 0
      (if decayed > sample then decayed else sample)
  end

let ewrtt t = Float.Array.unsafe_get t.ewrtt 0

let mxrtt t = t.beta *. Float.Array.unsafe_get t.ewrtt 0
