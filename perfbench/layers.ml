(* Per-layer accounting of traced Monte Carlo samples.

   A sample's time splits into statistical draws (core), compact-model
   evaluation (device) and everything else the circuit layer does around
   them: netlist build, assembly, LU, step control and measurement.  The
   circuit share is that remainder, so the three shares add up to the
   sample time by construction; what the trace adds is how the remainder
   divides per Newton iteration, and the linalg estimate of its LU part.
   Instrumentation cost is removed with the probe calibration. *)

module E = Vstat_circuit.Engine

type t = {
  mutable samples : int;
  mutable durations_ns : float list;
  mutable sample_ns : float;
  mutable evals : float;
  mutable eval_ns : float;
  mutable draws : float;
  mutable draw_ns : float;
  mutable pool_ns : float;  (** jobs x wall of the traced rounds *)
  mutable imbalance : float list;  (** per round: max/mean worker share - 1 *)
  mutable retried : int;
  mutable engine : E.counters list;  (** engine work per traced round *)
  mutable symbolic : int;
  mutable rounds : int;
}

let create () =
  {
    samples = 0;
    durations_ns = [];
    sample_ns = 0.0;
    evals = 0.0;
    eval_ns = 0.0;
    draws = 0.0;
    draw_ns = 0.0;
    pool_ns = 0.0;
    imbalance = [];
    retried = 0;
    engine = [];
    symbolic = 0;
    rounds = 0;
  }

(* Fold the sample spans recorded since the last [Probe.clear]. *)
let add_spans t spans =
  List.iter
    (fun (s : Probe.span) ->
      if s.name = "sample" then begin
        t.samples <- t.samples + 1;
        t.durations_ns <- Float.of_int s.dur_ns :: t.durations_ns;
        t.sample_ns <- t.sample_ns +. Float.of_int s.dur_ns;
        t.evals <- t.evals +. Probe.arg s "evals";
        t.eval_ns <- t.eval_ns +. Probe.arg s "eval_ns";
        t.draws <- t.draws +. Probe.arg s "draws";
        t.draw_ns <- t.draw_ns +. Probe.arg s "draw_ns"
      end)
    spans

let add_pool t ~wall_s ~(stats : Vstat_runtime.Runtime.stats) =
  t.pool_ns <- t.pool_ns +. (Float.of_int stats.jobs *. wall_s *. 1e9);
  t.retried <- t.retried + stats.retried_samples;
  let per = Array.map Float.of_int stats.per_worker in
  if Array.length per > 0 then
    t.imbalance <-
      ((Array.fold_left Float.max 0.0 per /. Stats.mean per) -. 1.0)
      :: t.imbalance

(* Engine work and sparse symbolic analyses done by [f]. *)
let count_work t f =
  let c0 = E.global_counters () in
  let s0 = Vstat_linalg.Sparse.symbolic_analyses () in
  let r = f () in
  t.engine <- E.counters_diff (E.global_counters ()) c0 :: t.engine;
  t.symbolic <- t.symbolic + (Vstat_linalg.Sparse.symbolic_analyses () - s0);
  t.rounds <- t.rounds + 1;
  r

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Eval cost net of the clock reads, ns per call. *)
let eval_ns t (cal : Probe.calibration) =
  ratio (t.eval_ns -. (t.evals *. cal.clock_pair_ns)) t.evals

type split = { sample : float; device : float; core : float; circuit : float }

let split t (cal : Probe.calibration) =
  let sample = t.sample_ns -. ((t.evals +. t.draws) *. cal.wrap_ns) in
  let device = t.eval_ns -. (t.evals *. cal.clock_pair_ns) in
  let core = t.draw_ns -. (t.draws *. cal.clock_pair_ns) in
  { sample; device; core; circuit = sample -. device -. core }

let metrics t cal ~(kernel : Kernels.estimate) =
  let s = split t cal in
  let f = Float.of_int in
  let per_sample x = ratio x (f t.samples) in
  let total field = f (List.fold_left (fun a c -> a + field c) 0 t.engine) in
  let newton = total (fun c -> c.E.newton_iterations) in
  let lu = total (fun c -> c.E.lu_factorizations) in
  let accepted = total (fun c -> c.E.accepted_steps) in
  let rejected = total (fun c -> c.E.rejected_steps) in
  let pct p =
    if t.samples = 0 then 0.0
    else Stats.percentile ~p (Array.of_list t.durations_ns) /. 1e6
  in
  [
    ("core.draw_us", ratio s.core t.draws /. 1e3);
    ("core.draws_per_sample", per_sample t.draws);
    ("core.share", ratio s.core s.sample);
    ("device.evals_per_sample", per_sample t.evals);
    ("device.eval_ns", eval_ns t cal);
    ("device.share", ratio s.device s.sample);
    ("circuit.newton_per_sample", per_sample newton);
    ("circuit.assemblies_per_sample", per_sample (total (fun c -> c.E.assemblies)));
    ("circuit.steps_per_sample", per_sample accepted);
    ("circuit.rejected_step_frac", ratio rejected (accepted +. rejected));
    ( "circuit.fd_eval_frac",
      ratio
        (total (fun c -> c.E.fd_evaluations))
        (total (fun c -> c.E.model_evaluations)) );
    ("circuit.self_ns_per_newton", ratio s.circuit newton);
    ("circuit.share", ratio s.circuit s.sample);
    ("linalg.factorizations_per_sample", per_sample lu);
    ("linalg.symbolic_analyses", ratio (f t.symbolic) (f (Int.max 1 t.rounds)));
    ("linalg.factor_ns", kernel.factor_ns);
    ("linalg.solve_ns", kernel.solve_ns);
    ( "linalg.share_est",
      ratio ((lu *. kernel.factor_ns) +. (newton *. kernel.solve_ns)) s.sample );
    ("runtime.sample_ms_p50", pct 50.0);
    ("runtime.sample_ms_p99", pct 99.0);
    ("runtime.pool_idle_frac", Float.max 0.0 (1.0 -. ratio t.sample_ns t.pool_ns));
    ( "runtime.worker_imbalance",
      match t.imbalance with [] -> 0.0 | l -> Stats.mean (Array.of_list l) );
    ("runtime.retried_frac", per_sample (f t.retried));
  ]
