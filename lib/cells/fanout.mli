(** Fanout-of-N delay/leakage bench for any single-input view of a gate
    (paper Figs. 5-7 and Table IV: INV FO3 and NAND2 FO3).

    Topology: an ideal pulse drives a same-sized *driver* gate that shapes
    a realistic edge at node [a]; the DUT drives node [y], which is loaded
    by [fanout] identical gates (their gate capacitance is the load, as in
    a standard-cell FO-N characterization).  Every gate switches through
    its {!Gates.gate} [add] input, with the other inputs tied
    non-controlling. *)

type 'd sample = { vdd : float; driver : 'd; dut : 'd; loads : 'd array }
(** All transistor instances of one Monte Carlo draw.  Field order fixes
    the draw order: loads, then DUT, then driver. *)

type result = {
  tphl : float;    (** output falling propagation delay, s *)
  tplh : float;    (** output rising propagation delay, s *)
  tpd : float;     (** (tphl + tplh) / 2 *)
  leakage : float; (** static supply current with the pulse input low, A *)
}

val sample :
  'd Gates.gate ->
  Celltech.t ->
  wp_nm:float ->
  wn_nm:float ->
  fanout:int ->
  'd sample
(** Draw all devices for one bench instance.
    @raise Invalid_argument when [fanout < 1]. *)

val default_window : vdd:float -> float
(** Simulation window heuristic; grows as the supply drops (low-Vdd delays
    are an order of magnitude longer). *)

val measure : 'd Gates.gate -> ?window:float -> 'd sample -> result
(** Build the netlist, run one DC solve for leakage and one 400-step
    transient with a rise+fall input pulse.
    @raise Vstat_circuit.Diag.Solver_error ([Measure_no_crossing], analysis
    [measure:<gate name>]) if a 50 % crossing is never observed (window
    too short). *)
