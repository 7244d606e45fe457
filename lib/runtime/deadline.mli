(** Monotonic wall-clock deadlines for Monte Carlo runs.

    A watchdog is a [unit -> bool] closure polled by the runtime's domain
    pool at sample boundaries; once it returns [true] the pool stops
    claiming work and the run returns partial.  The clock is
    CLOCK_MONOTONIC (via the bechamel stub), so the deadline is immune to
    NTP steps; it is the single sanctioned wall-clock read under the
    [determinism-wallclock] lint rule — deadlines decide {e how many}
    samples run, never what any sample computes, and checkpoint/resume
    keeps the surviving samples bit-identical to an uninterrupted run.
    The same clock times what [lib] reports ({!Runtime.stats}'s [wall_s],
    [Exp_table4]'s runtimes), which likewise never feeds a sample. *)

val now_ns : unit -> int64
(** CLOCK_MONOTONIC, nanoseconds from an unspecified epoch. *)

val seconds_since : int64 -> float
(** Seconds elapsed since an earlier {!now_ns} reading. *)

val watchdog : seconds:float -> unit -> bool
(** [watchdog ~seconds] starts the budget now; the returned closure
    reports whether the budget is exhausted.  Thread-safe (reads the
    clock, no mutable state).  @raise Invalid_argument if
    [seconds <= 0]. *)

val never : unit -> bool
(** The no-deadline watchdog: always [false]. *)

val combine : (unit -> bool) -> (unit -> bool) -> unit -> bool
(** Stop when either watchdog fires. *)
