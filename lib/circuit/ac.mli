(** Small-signal AC analysis.

    Linearizes the circuit at a DC operating point and solves the complex
    MNA system (G + j omega C) x = b over a frequency sweep, with a unit AC
    excitation superimposed on one named voltage source — the classic
    ".ac" analysis (the paper's Table IV runs its SRAM workload in AC). *)

type point = {
  freq_hz : float;
  response : Complex.t array;  (** full MNA small-signal solution vector *)
}

type t = {
  points : point list;
  source : string;
}

val sweep :
  Engine.t -> op:Engine.op -> source:string -> freqs_hz:float array -> t
(** AC-sweep with a 1 V amplitude on [source] (all other independent
    sources are AC-quiet).
    @raise Not_found for an unknown source name. *)

val node_transfer : Engine.t -> t -> Netlist.node -> (float * Complex.t) array
(** (frequency, complex node voltage) pairs — the transfer function from
    the excited source to a node. *)

val magnitude_db : Complex.t -> float
(** 20 log10 |H|. *)

val phase_deg : Complex.t -> float
