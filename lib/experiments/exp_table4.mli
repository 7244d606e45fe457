(** Table IV — speed and memory comparison for Monte Carlo simulation with
    the VS model vs the golden BSIM-style model.

    Both models run in the same MNA engine, so the ratio isolates compact-
    model evaluation cost, mirroring the paper's Verilog-A-VS vs C-BSIM4
    comparison (they report 4.2x runtime and 8.7x memory advantages; our
    models are both native OCaml, so the gap reflects equation complexity
    only).  Memory is measured as bytes allocated during the workload. *)

type row = {
  workload : string;
  samples : int;
  vs_runtime_s : float;
  bsim_runtime_s : float;
  vs_alloc_mb : float;
  bsim_alloc_mb : float;
}

type t = { rows : row list }

val run :
  ?n_nand2:int -> ?n_dff:int -> ?n_sram:int -> ?seed:int ->
  Vstat_core.Pipeline.t -> t
(** Default sample counts are scaled down from the paper's (2000/250/2000)
    to keep the default CLI run short; pass the full counts to reproduce the
    table at paper scale. *)

val model_eval_comparison : Vstat_core.Pipeline.t -> float
(** Microbenchmark: ratio of per-evaluation cost (golden / VS) for a single
    device evaluation loop of 200 000 evaluations. *)

val pp : Format.formatter -> t -> unit
