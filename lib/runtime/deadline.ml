(* Monotonic wall-clock deadline watchdog.

   The determinism lint bans wall-clock reads in sample code: a sample's
   value must be a pure function of (index, substream).  A *deadline* is
   different — it decides only how many samples run, never what any sample
   computes, and the checkpoint/resume machinery guarantees the surviving
   prefix is bit-identical to the same samples of an uninterrupted run.
   This module is therefore the single sanctioned clock read: the
   bechamel CLOCK_MONOTONIC stub (immune to NTP steps and
   settimeofday, unlike Unix.gettimeofday), suppressed at exactly one
   binding below. *)

(* Sanctioned wall-clock read: CLOCK_MONOTONIC nanoseconds for deadlines
   and reported timings only — never consulted by sample code (see module
   comment and DESIGN.md "Checkpointing & deadlines"). *)
let[@vstat.allow "determinism-wallclock"] now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let watchdog ~seconds =
  if not (seconds > 0.0) then
    invalid_arg
      (Printf.sprintf "Deadline.watchdog: seconds must be > 0 (got %g)"
         seconds);
  let budget_ns = Int64.of_float (seconds *. 1e9) in
  let start = now_ns () in
  fun () -> Int64.compare (Int64.sub (now_ns ()) start) budget_ns >= 0

let never () = false

let combine a b = fun () -> a () || b ()
