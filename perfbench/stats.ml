(* Order statistics for the benchmark's reports.

   Latency percentiles use the nearest-rank definition (the reported value
   is always one that was observed).  Quartiles use the "exclusive" method
   of Python's [statistics.quantiles(xs, n=4)], so the IQR printed by
   [compare] is the spread the benchmark's acceptance rule computes. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let check_nonempty what xs =
  if Array.length xs = 0 then invalid_arg (what ^ ": empty sample")

(* Smallest observed value with at least [p] percent of the sample at or
   below it; [p] in [0, 100]. *)
let percentile ~p xs =
  check_nonempty "Stats.percentile" xs;
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g outside [0, 100]" p);
  let s = sorted xs in
  let n = Array.length s in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. Float.of_int n)) in
  s.(Int.max 0 (rank - 1))

let median xs =
  check_nonempty "Stats.median" xs;
  let s = sorted xs in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* (q1, q2, q3) by linear interpolation between order statistics at the
   positions i (n + 1) / 4, clamped to the sample: Python's default
   [method='exclusive']. *)
let quartiles xs =
  check_nonempty "Stats.quartiles" xs;
  let s = sorted xs in
  let n = Array.length s in
  if n = 1 then (s.(0), s.(0), s.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = Int.min (n - 1) (Int.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. Float.of_int (4 - delta)) +. (s.(j) *. Float.of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)
