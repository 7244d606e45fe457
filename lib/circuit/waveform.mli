(** Time-dependent source values for independent V/I sources. *)

type pulse_shape = {
  low : float;
  high : float;
  delay : float;     (** time the first edge starts, s *)
  rise : float;      (** rise time, s *)
  fall : float;      (** fall time, s *)
  width : float;     (** time spent at [high] between edges, s *)
  period : float;    (** repetition period; 0 or less = single pulse *)
}

type pwl_shape = private {
  points : (float * float) array;  (** original (time, value) pairs *)
  xs : float array;                (** times, precomputed at construction *)
  ys : float array;                (** values, precomputed at construction *)
}
(** Piecewise-linear point set with the time/value arrays split once at
    construction — [value] runs inside every Newton iteration of every
    transient step, so it must not allocate.  Build with {!pwl}. *)

type t =
  | Dc of float
      (** Constant value. *)
  | Var of float ref
      (** Mutable constant — the handle used by DC sweeps, which update the
          ref between operating-point solves. *)
  | Pulse of pulse_shape
  | Pwl of pwl_shape
      (** Piecewise-linear (time, value) points, times ascending; clamps to
          the end values outside the covered range.  Construct with {!pwl}. *)
  | Sine of sine_shape

and sine_shape = {
  offset : float;
  amplitude : float;
  freq_hz : float;
  phase : float;  (** radians *)
}

val pwl : (float * float) array -> t
(** Smart constructor for {!Pwl}: splits the pairs into the xs/ys arrays.
    @raise Invalid_argument on an empty point list. *)

val value : t -> float -> float
(** Evaluate at a time (negative times clamp to the initial value). *)

val breakpoints : t -> tstop:float -> float list
(** Corner times of the waveform strictly inside (0, [tstop]), in ascending
    order: PWL point times, pulse edge start/end times (repeated per period
    for periodic pulses, up to a safety cap).  Smooth or constant waveforms
    ([Dc], [Var], [Sine]) have none.  The transient stepper lands on these
    instead of halving into discontinuous source derivatives. *)
