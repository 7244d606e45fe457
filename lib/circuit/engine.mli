(** Modified-nodal-analysis solver: Newton–Raphson DC and transient.

    The solution vector stacks node voltages (nodes 1..N) followed by the
    branch currents of voltage sources (in netlist insertion order).
    Nonlinear devices are linearized each Newton iteration through their
    analytic derivative path ({!Vstat_device.Device_model.eval_derivs}):
    at most one model call per device per iteration.  Each device keeps its
    last call's outputs and voltages, and a pass at the same voltages (the
    next step's first iteration starts at the accepted point) reads them
    instead: outputs depend only on the four voltages, so every value is
    the same bits.  Convergence aids are a gmin floor, gmin stepping and
    source stepping.

    Each compiled engine owns a reusable workspace (Jacobian values,
    residual, update vector, factor storage, charge-state scratch and a
    derivative buffer per device), so the Newton inner loop performs no
    allocation; factorization and triangular solves run in place on the
    workspace.

    Two linear-solver backends share one stamping interface: a dense
    in-place LU ({!Vstat_linalg.Lu}) and a sparse KLU-style solver
    ({!Vstat_linalg.Sparse}) whose symbolic analysis is computed once per
    circuit topology and shared across engines (and Monte Carlo samples)
    through a process-wide cache.  At [compile] time every element's stamp
    coordinates are resolved to flat slot indices into the backend's value
    buffer, so the assembly loop is identical for both backends.  Both use
    the same scale-relative pivot test, and sparse pivot order is static
    (topology only), so results are independent of sample order and worker
    count. *)

type t
(** Compiled system (frozen netlist + index maps + workspaces).  An engine
    instance is not thread-safe: its workspace is reused across solves, so
    share nothing — compile one engine per domain. *)

type backend =
  | Auto    (** sparse for [unknowns >= 32], dense below (default) *)
  | Dense   (** force the dense LU path *)
  | Sparse  (** force the sparse path (any size) *)

val compile : ?backend:backend -> Netlist.t -> t
(** Freeze a netlist into a solver.  Each MOSFET's
    [eval_derivs] closure is resolved here, once.  @raise Invalid_argument
    naming the MOSFET and its device when a device has
    [eval_derivs = None]. *)

val resolved_backend : t -> backend
(** The backend actually chosen ([Dense] or [Sparse], never [Auto]). *)

(** {1 Solver options}

    Every tunable of the DC/transient solvers in one record, so a retry
    policy can escalate a whole sample at once.  Solver failures raise
    {!Diag.Solver_error} with a typed diagnostic — this module raises no
    string exceptions. *)

type solver_options = {
  max_iter_dc : int;        (** Newton cap per DC continuation stage (80) *)
  max_iter_tran : int;      (** Newton cap per transient step (40) *)
  damping_clamp : float;    (** node-voltage update clamp, V (0.5) *)
  gmin_floor : float;       (** diagonal conductance floor, S (1e-12) *)
  gmin_ladder : float list; (** gmin stepping stages, before the floor *)
  source_ladder : float list;  (** source stepping scale factors *)
  dt_min_factor : float;    (** minimum step as a fraction of [dt] (1/256) *)
  dt_scale : float;         (** scales the requested [dt] (1.0); retry
                                escalation halves it *)
  trap : bool;              (** trapezoidal integration (default BE) *)
  work_cap : int;
      (** watchdog: max Newton iterations + accepted steps per public solve
          — a deterministic bound, unlike wall-clock, so a pathological
          corner fails identically on every machine and worker count *)
}

val default_options : solver_options

val escalate : attempt:int -> solver_options -> solver_options
(** Options for retry attempt [attempt] (0 = first try, returned
    unchanged).  Attempt 1 is value-neutral — it only relaxes limits that
    cannot alter the result of a solve that succeeds (iteration caps, work
    cap, denser gmin ladder), so a retried sample whose re-run encounters
    no fault reproduces the first-attempt value bit-for-bit.  Attempt >= 2
    additionally halves the step ([dt_scale]), lowers the [dt_min] floor
    and tightens the damping clamp. *)

val with_options : solver_options -> (unit -> 'a) -> 'a
(** Run a thunk with the given options ambient on the current domain:
    every [dc]/[transient] call inside it solves under them, and outside
    any [with_options] they are {!default_options}.  This is how the
    runtime's retry ladder escalates measurement code that calls the
    solver many layers down.  Restores the previous ambient options on
    exit (including by exception); ambient state is per-domain
    ([Domain.DLS]), so parallel workers don't interfere. *)

type op = {
  x : float array;       (** converged solution vector *)
  time : float;          (** time at which sources were evaluated *)
}

val dc : ?guess:float array -> t -> op
(** Operating point, with the sources at time 0.  Tries direct Newton from
    [guess] (default: all zeros), then gmin stepping, then source
    stepping, under the ambient options ({!with_options}).
    @raise Diag.Solver_error with kind [Dc_no_convergence],
    [Singular_jacobian], [Nonfinite_update] or [Work_cap_exceeded]. *)

val voltage : t -> op -> Netlist.node -> float
val source_current : t -> op -> string -> float
(** Branch current of a named voltage source (positive current flows into
    the [plus] terminal through the source toward [minus]).
    @raise Invalid_argument naming the unknown source and the known names. *)

type trace = {
  times : float array;
  states : float array array;  (** states.(k) is the solution at times.(k) *)
}

val transient : t -> tstop:float -> dt:float -> trace
(** Integrate from a t=0 operating point to [tstop] with maximum step [dt]
    (backward Euler by default, trapezoidal when [options.trap]).  The
    step is halved on Newton failure (down to [dt * dt_min_factor],
    default 1/256) and grown back on easy convergence.  Steps are aligned to the waveform
    corners of every independent source (pulse edges, PWL vertices), so
    sharp input transitions are landed on exactly rather than straddled.
    It solves under the ambient options ({!with_options}); the t=0
    operating point shares the solve's work budget.
    @raise Diag.Solver_error with kind [Tran_step_floor] (or
    [Nonfinite_update]/[Singular_jacobian] when that is what kept killing
    steps), [Work_cap_exceeded], or a DC kind from the t=0 solve. *)

val node_wave : t -> trace -> Netlist.node -> float array

val branch_row : t -> string -> int
(** Index of a voltage source's branch-constraint row/column in the MNA
    system (used by {!Ac} to place the excitation).
    @raise Invalid_argument naming the unknown source and the known names. *)

val linearize : t -> op -> Vstat_linalg.Matrix.t * Vstat_linalg.Matrix.t
(** [linearize t op] is the small-signal (G, C) pair at the operating
    point: G is the conductance Jacobian, C the charge Jacobian, both over
    the full MNA unknown vector.  The AC system at angular frequency omega
    is (G + j omega C); see {!Ac}. *)

(** {1 Work counters}

    Per-phase workload accounting, kept per engine instance (a
    {!Diag.Solver_error} carries a snapshot) and as process-wide totals
    (aggregated across domains, so a parallel Monte Carlo run can report
    the work of all its workers). *)

type counters = {
  newton_iterations : int;
      (** Newton iterations (linear solves attempted). *)
  model_evaluations : int;
      (** Compact-model calls made: at most 1 per device per assembly or
          converged solve, none for a device whose terminal voltages are
          bit-identical to its previous call's. *)
  fd_evaluations : int;
      (** Always 0: the engine has no finite-difference path.  Kept so
          readers of the record (perfbench's [circuit.fd_eval_frac]) still
          compile. *)
  assemblies : int;
      (** Full system assemblies (stamp passes): 1 per Newton iteration. *)
  lu_factorizations : int;     (** In-place LU factorizations. *)
  accepted_steps : int;        (** Transient steps accepted. *)
  rejected_steps : int;        (** Transient steps rejected (halved). *)
  breakpoint_hits : int;       (** Steps truncated to a waveform corner. *)
}

val global_counters : unit -> counters
(** Process-wide totals across every engine on every domain.  Engines flush
    their local counts at the end of each [dc]/[transient]/[linearize]
    call, so totals are exact once the solves of interest have returned. *)

val counters_diff : counters -> counters -> counters
(** Field-wise [a - b]; use with {!global_counters} snapshots to attribute
    work to a region of interest. *)
