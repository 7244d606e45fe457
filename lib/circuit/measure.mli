(** Waveform and operating-point measurements used by the benchmark cells. *)

val propagation_delay :
  times:float array ->
  input:float array ->
  output:float array ->
  v50:float ->
  input_rising:bool ->
  output_rising:bool ->
  float option
(** 50 %-to-50 % propagation delay: time from the input crossing [v50] to
    the first output crossing of [v50] at or after it.  The search includes
    the trace segment that straddles the input edge, so an output crossing
    landing between the same two samples as the input edge is found (and
    one interpolating to before the input edge is skipped, not mistimed).
    [None] if either edge never happens. *)

val settled_value : values:float array -> tail_fraction:float -> float
(** Mean of the last [tail_fraction] of the waveform — "final" logic value. *)

val dc_sweep :
  Engine.t -> set:(float -> unit) -> values:float array ->
  probe:(Engine.op -> float) -> float array
(** Generic DC transfer sweep: for each value, [set] it (typically writing a
    {!Waveform.Var} ref), re-solve the operating point seeded with the
    previous solution, and record [probe].  Used for SRAM butterfly curves
    and I–V curve tracing at circuit level. *)
