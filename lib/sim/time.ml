(* Integer-nanosecond simulated time.

   The scheduling core (engine clock, timer-wheel keys and ticks)
   represents time as [int] nanoseconds. Integers compare, add and
   divide without boxing — a dynamic float crossing a non-inlined
   function boundary costs a 16-byte heap block per call (no flambda),
   and the scheduler crosses such boundaries once or twice per event —
   and integer tie-breaks are exact, where float arithmetic needed
   epsilon skews.

   Floats remain the *boundary* representation: configuration, traces,
   probes and statistics all speak seconds, converted here. The
   conversions are exact in the direction that matters: for every time
   the engine can produce (see the bound below), [of_sec (to_sec ns) =
   ns], so a caller that reads the clock in seconds and schedules at
   that time lands on the same nanosecond.

   Range: [max_int] on a 64-bit build is 2^62 - 1 ns ~ 146 years of
   simulated time; [never] ([max_int]) is the infinity sentinel.
   Round-tripping through a float is exact while |ns| < 2^50 (~13 days
   of simulated time — the double rounding error of /1e9 then *1e9 is
   below 0.5 ulp of a nanosecond until then), which bounds every
   workload in the tree by five orders of magnitude. *)

type t = int

let ns_per_sec = 1_000_000_000

(* The infinity sentinel: beyond any schedulable time. *)
let never = max_int

(* Floats at or above this many seconds (including [infinity]) map to
   [never]: 2^61 ns, safely below [max_int] so [of_sec] never
   overflows int arithmetic on the way in. *)
let horizon_sec = 2.305843009213694e9 (* 2^61 / 1e9 *)

let[@inline] of_sec s =
  if s >= horizon_sec then never else int_of_float (Float.round (s *. 1e9))

(* Ceiling conversion, for float *delays*. A float-era idiom re-arms a
   timer with the remaining time to a float deadline; each re-arm
   shrank the gap, and strictly positive float delays always advanced
   the clock. Round-to-nearest breaks that: a sub-nanosecond remainder
   becomes a 0 ns delay, the timer re-fires at the same instant, the
   remainder is unchanged, and the simulation livelocks. Rounding
   delays *up* restores the invariant (positive float delay => at least
   1 ns of progress) while staying exact for delays on the ns grid. *)
let[@inline] of_sec_delay s =
  if s >= horizon_sec then never else int_of_float (Float.ceil (s *. 1e9))

let[@inline] to_sec ns =
  if ns = never then infinity else float_of_int ns /. 1e9

(* Saturating addition for deadline arithmetic: [never] plus anything
   stays [never], and a finite sum that would overflow clamps. Both
   operands are >= 0 in every call site (times and delays). *)
let[@inline] add a b = if a >= never - b then never else a + b
