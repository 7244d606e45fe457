(** Ring oscillator: an odd chain of inverters whose oscillation frequency
    is the canonical silicon speed monitor.  Within-die mismatch spreads the
    frequency across dies exactly as the paper's frequency-vs-leakage plot
    (Fig. 6) illustrates; this cell measures it directly from a transient. *)

type sample = {
  vdd : float;
  stages : Gates.inverter_devices array;  (** five inverters *)
}

type result = {
  frequency_hz : float;     (** steady-state oscillation frequency *)
  period_s : float;
  stage_delay_s : float;    (** period / (2 * stages) *)
  leakage : float;          (** static supply current with the ring broken *)
}

val sample : Celltech.t -> sample
(** Five stages of P/N = 600/300 nm. *)

val measure : sample -> result
(** Run a transient long enough for ~6 oscillation periods (the first
    two are discarded as startup) and measure the
    average period from successive rising crossings of one node.
    @raise Vstat_circuit.Diag.Solver_error ([Measure_no_crossing]) if the ring fails to oscillate in the window. *)
