(* Solver failures raise [Diag.Solver_error] carrying a typed diagnostic;
   this module never raises a bare string exception. *)

type solver_options = {
  max_iter_dc : int;
  max_iter_tran : int;
  damping_clamp : float;
  gmin_floor : float;
  gmin_ladder : float list;
  source_ladder : float list;
  dt_min_factor : float;
  dt_scale : float;
  trap : bool;
  work_cap : int;
}

let default_options =
  {
    max_iter_dc = 80;
    max_iter_tran = 40;
    damping_clamp = 0.5;
    gmin_floor = 1e-12;
    gmin_ladder = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10 ];
    source_ladder = [ 0.05; 0.15; 0.3; 0.45; 0.6; 0.75; 0.9; 1.0 ];
    dt_min_factor = 1.0 /. 256.0;
    dt_scale = 1.0;
    trap = false;
    work_cap = 1_000_000;
  }

let dense_gmin_ladder =
  [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-11 ]

(* Escalation ladder for the runtime's retry policy.  Attempt 1 is
   value-neutral: it only relaxes limits that cannot change the result of a
   solve that succeeds (iteration caps, work cap, a denser gmin ladder that
   is consulted only after the direct solve has already failed), so a
   retried sample whose re-run hits no fault reproduces the clean value
   bit-for-bit.  From attempt 2 the step size and damping change too —
   those solves may differ at the convergence tolerance (~1e-11). *)
let escalate ~attempt o =
  if attempt <= 0 then o
  else begin
    let boost = Int.shift_left 1 (Int.min attempt 4) in
    let o' =
      {
        o with
        max_iter_dc = o.max_iter_dc * boost;
        max_iter_tran = o.max_iter_tran * boost;
        gmin_ladder = dense_gmin_ladder;
        work_cap =
          (if o.work_cap >= max_int / boost then max_int
           else o.work_cap * boost);
      }
    in
    if attempt = 1 then o'
    else
      {
        o' with
        dt_scale =
          o.dt_scale /. Float.of_int (Int.shift_left 1 (Int.min (attempt - 1) 6));
        dt_min_factor = o.dt_min_factor /. 16.0;
        damping_clamp = o.damping_clamp *. 0.5;
      }
  end

(* Ambient options, per domain: measurement code deep inside a cell calls
   [dc]/[transient] without threading options through every layer, yet a
   retry wrapper can still escalate the whole sample under
   [with_options]. *)
let ambient_key = Domain.DLS.new_key (fun () -> default_options)

let current_options () = Domain.DLS.get ambient_key

let with_options opts f =
  let old = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key opts;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key old) f

type mode = Dc | Tran of { h : float; trap : bool }

(* ------------------------------------------------------------------ *)
(* Per-phase work counters.                                            *)

type counters = {
  newton_iterations : int;
  model_evaluations : int;
  fd_evaluations : int;
  assemblies : int;
  lu_factorizations : int;
  accepted_steps : int;
  rejected_steps : int;
  breakpoint_hits : int;
}

let n_counters = 7
let c_newton = 0
let c_model = 1
let c_assembly = 2
let c_lu = 3
let c_accepted = 4
let c_rejected = 5
let c_breakpoint = 6

let counters_of_array a =
  {
    newton_iterations = a.(c_newton);
    model_evaluations = a.(c_model);
    fd_evaluations = 0;
    assemblies = a.(c_assembly);
    lu_factorizations = a.(c_lu);
    accepted_steps = a.(c_accepted);
    rejected_steps = a.(c_rejected);
    breakpoint_hits = a.(c_breakpoint);
  }

let counters_diff a b =
  {
    newton_iterations = a.newton_iterations - b.newton_iterations;
    model_evaluations = a.model_evaluations - b.model_evaluations;
    fd_evaluations = 0;
    assemblies = a.assemblies - b.assemblies;
    lu_factorizations = a.lu_factorizations - b.lu_factorizations;
    accepted_steps = a.accepted_steps - b.accepted_steps;
    rejected_steps = a.rejected_steps - b.rejected_steps;
    breakpoint_hits = a.breakpoint_hits - b.breakpoint_hits;
  }

(* Process-wide totals, aggregated across every engine instance on every
   domain.  Engines accumulate locally and flush the delta at the end of
   each public solve so the hot loops never touch an atomic. *)
let totals = Array.init n_counters (fun _ -> Atomic.make 0)

let global_counters () =
  counters_of_array (Array.map Atomic.get totals)

(* Which linear-solver path a compiled engine uses.  [Auto] picks sparse
   once the system is big enough that the O(n^2)-per-factorization dense
   path loses; tiny systems stay dense both for speed and so existing
   small-circuit results are bit-identical to previous releases. *)
type backend = Auto | Dense | Sparse

let sparse_threshold = 32

type solver_state =
  | S_dense
  | S_sparse of Vstat_linalg.Sparse.numeric

type t = {
  netlist : Netlist.t;               (* names the unknowns in diagnostics *)
  elems : Netlist.element array;
  nn : int;                          (* node-voltage unknowns *)
  nv : int;                          (* vsource branch unknowns *)
  vsrc_index : (string * int) list;  (* source name -> branch slot *)
  charge_offset : int array;         (* per element; -1 = no charge state *)
  n_charges : int;
  derivs : Vstat_device.Device_model.eval_derivs array;
      (* per element: the MOSFET's analytic linearization, resolved here at
         compile time ([no_derivs] for every other element kind) *)
  cnt : int array;                   (* per-phase counters, local *)
  flushed : int array;               (* portion already pushed to [totals] *)
  (* Reusable per-instance workspace: one allocation at compile time, zero
     allocations per Newton iteration afterwards. *)
  solver : solver_state;
  jac : Vstat_linalg.Matrix.t;       (* dense factor workspace (1x1 dummy
                                        on the sparse path) *)
  pivots : int array;                (* dense pivot storage *)
  vals : float array;
      (* Jacobian stamp buffer: the dense matrix buffer or the sparse value
         array — assembly writes through [slots] either way. *)
  slots : int array array;
      (* Per-element flat stamp indices into [vals], resolved once here at
         compile time (-1 = ground, dropped).  Layouts: R/C 4 (aa ab ba bb);
         vsource 4 (p,br m,br br,p br,m); MOSFET 16 (terminal block rows x
         cols in g d s b order); isource 0. *)
  diag_slots : int array;            (* node diagonals, for the gmin floor *)
  res : float array;
  rhs : float array;                 (* negated residual, then the update *)
  xws : float array;                 (* Newton iterate *)
  mutable q_work : float array;      (* charges at the current candidate *)
  mutable i_work : float array;      (* charge currents at the candidate *)
  (* The kept evaluation: per element, the MOSFET's outputs from its last
     model call ([eval_derivs] writes here directly), and at [charge_offset]
     the four terminal voltages (g d s b) of that call, NaN for none. *)
  kept : Vstat_device.Device_model.derivs array;
  kept_v : float array;
  (* Current source-evaluation time, in a 1-slot float array rather than a
     mutable float field or a parameter: float-array stores stay unboxed,
     whereas passing a freshly computed float to the (non-inlined) newton /
     assemble functions would box it once per transient step. *)
  now : float array;
  (* Work-cap watchdog: Newton iterations + accepted steps consumed by the
     current public solve, against the active options' cap. *)
  mutable work_used : int;
  mutable work_cap : int;
}

(* What unknown [c] is, for a diagnostic: a node voltage (unknowns
   [0, nn)) or a voltage-source branch current (from [nn] on). *)
let unknown_name netlist ~nn ~vsrc_index c =
  match
    ( List.find_opt
        (fun (_, h) -> Netlist.node_index h = c + 1)
        (Netlist.all_nodes netlist),
      List.find_opt (fun (_, i) -> i = c - nn) vsrc_index )
  with
  | Some (name, _), _ -> "voltage of node " ^ name
  | None, Some (name, _) -> "branch current of " ^ name
  | None, None -> "unknown"

let no_derivs ~vg:_ ~vd:_ ~vs:_ ~vb:_ (_ : Vstat_device.Device_model.derivs) =
  ()

let compile ?(backend = Auto) netlist =
  let elems = Array.of_list (Netlist.elements netlist) in
  let derivs =
    Array.map
      (function
        | Netlist.Mosfet { name; dev; _ } -> (
          match dev.Vstat_device.Device_model.eval_derivs with
          | Some f -> f
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Engine.compile: MOSFET %s (device %s) has no analytic \
                  derivatives (eval_derivs = None)"
                 name dev.name)
            [@vstat.allow "exn-discipline"])
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
        | Netlist.Isource _ ->
          no_derivs)
      elems
  in
  let nn = Netlist.node_count netlist in
  let charge_offset = Array.make (Array.length elems) (-1) in
  let n_charges = ref 0 in
  let nv = ref 0 in
  let vsrc_index = ref [] in
  Array.iteri
    (fun k e ->
      match e with
      | Netlist.Capacitor _ ->
        charge_offset.(k) <- !n_charges;
        n_charges := !n_charges + 1
      | Netlist.Mosfet _ ->
        charge_offset.(k) <- !n_charges;
        n_charges := !n_charges + 4
      | Netlist.Vsource { name; _ } ->
        vsrc_index := (name, !nv) :: !vsrc_index;
        incr nv
      | Netlist.Resistor _ | Netlist.Isource _ -> ())
    elems;
  let n = Int.max (nn + !nv) 1 in
  let nq = Int.max !n_charges 1 in
  (* Per-element Jacobian coordinate blocks in stamp order; -1 components
     mark the dropped ground row/column. *)
  let ni h = Netlist.node_index h - 1 in
  let coords = Array.make (Array.length elems) [||] in
  let branch = ref 0 in
  for k = 0 to Array.length elems - 1 do
    coords.(k) <-
      (match elems.(k) with
      | Netlist.Resistor { a; b; _ } | Netlist.Capacitor { a; b; _ } ->
        let ia = ni a and ib = ni b in
        [| (ia, ia); (ia, ib); (ib, ia); (ib, ib) |]
      | Netlist.Vsource { plus; minus; _ } ->
        let ip = ni plus and im = ni minus in
        let bc = nn + !branch in
        incr branch;
        [| (ip, bc); (im, bc); (bc, ip); (bc, im) |]
      | Netlist.Isource _ -> [||]
      | Netlist.Mosfet { d; g; s; b; _ } ->
        let trm = [| ni g; ni d; ni s; ni b |] in
        Array.init 16 (fun p -> (trm.(p / 4), trm.(p mod 4))))
  done;
  let use_sparse =
    match backend with
    | Dense -> false
    | Sparse -> true
    | Auto -> n >= sparse_threshold
  in
  let solver, jac, pivots, vals, slots, diag_slots =
    if use_sparse then begin
      (* The shared pattern: every stamped coordinate plus the gmin node
         diagonals.  [analyze_cached] memoizes per topology, so compiling
         one engine per MC sample performs the symbolic work once. *)
      let entries = ref [] in
      for i = 0 to nn - 1 do
        entries := (i, i) :: !entries
      done;
      Array.iter
        (Array.iter (fun (r, c) ->
             if r >= 0 && c >= 0 then entries := (r, c) :: !entries))
        coords;
      let sym =
        match
          Vstat_linalg.Sparse.analyze_cached ~n
            ~entries:(Array.of_list !entries)
        with
        | sym -> sym
        | exception Vstat_linalg.Lu.Singular { column = c; _ } ->
          Diag.fail ~analysis:"compile" Singular_jacobian
            "structurally singular: no equation determines unknown %d (%s)" c
            (unknown_name netlist ~nn ~vsrc_index:!vsrc_index c)
      in
      let num = Vstat_linalg.Sparse.create_numeric sym in
      let slot (r, c) =
        if r >= 0 && c >= 0 then Vstat_linalg.Sparse.slot sym ~row:r ~col:c
        else -1
      in
      ( S_sparse num,
        Vstat_linalg.Matrix.create ~rows:1 ~cols:1,
        Array.make 1 0,
        Vstat_linalg.Sparse.values num,
        Array.map (Array.map slot) coords,
        Array.init nn (fun i -> Vstat_linalg.Sparse.slot sym ~row:i ~col:i) )
    end
    else begin
      let jac = Vstat_linalg.Matrix.create ~rows:n ~cols:n in
      let slot (r, c) = if r >= 0 && c >= 0 then (r * n) + c else -1 in
      ( S_dense,
        jac,
        Array.make n 0,
        Vstat_linalg.Matrix.buffer jac,
        Array.map (Array.map slot) coords,
        Array.init nn (fun i -> (i * n) + i) )
    end
  in
  {
    netlist;
    elems;
    nn;
    nv = !nv;
    vsrc_index = List.rev !vsrc_index;
    charge_offset;
    n_charges = !n_charges;
    derivs;
    cnt = Array.make n_counters 0;
    flushed = Array.make n_counters 0;
    solver;
    jac;
    pivots;
    vals;
    slots;
    diag_slots;
    res = Array.make n 0.0;
    rhs = Array.make n 0.0;
    xws = Array.make n 0.0;
    q_work = Array.make nq 0.0;
    i_work = Array.make nq 0.0;
    kept =
      (let none = Vstat_device.Device_model.make_derivs () in
       Array.map
         (function
           | Netlist.Mosfet _ -> Vstat_device.Device_model.make_derivs ()
           | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _
           | Netlist.Isource _ ->
             none)
         elems);
    kept_v = Array.make nq Float.nan;
    now = Array.make 1 0.0;
    work_used = 0;
    work_cap = default_options.work_cap;
  }

let resolved_backend t =
  match t.solver with S_dense -> Dense | S_sparse _ -> Sparse

let unknowns t = t.nn + t.nv

let bump t c n = t.cnt.(c) <- t.cnt.(c) + n

let flush_counters t =
  for c = 0 to n_counters - 1 do
    let d = t.cnt.(c) - t.flushed.(c) in
    if d <> 0 then begin
      ignore (Atomic.fetch_and_add totals.(c) d);
      t.flushed.(c) <- t.cnt.(c)
    end
  done

let counter_snapshot t =
  [
    ("newton", t.cnt.(c_newton));
    ("model", t.cnt.(c_model));
    ("assembly", t.cnt.(c_assembly));
    ("lu", t.cnt.(c_lu));
    ("steps", t.cnt.(c_accepted));
    ("rejected", t.cnt.(c_rejected));
  ]

(* Voltage of a node handle under candidate solution [x]. *)
let[@inline always] nodev x n =
  let i = Netlist.node_index n in
  if i = 0 then 0.0 else x.(i - 1)

(* Stamp helpers for [assemble], all forced inline.  Two constraints shape
   them (enforced by the [@vstat.hot] lint rule and the zero-allocation
   gate in test/test_lint.ml):
   - they must not be local closures: a closure capturing the workspace
     would be allocated on every assembly;
   - after inlining no out-of-line call with a float argument may remain:
     classic (non-flambda) ocamlopt boxes such arguments, so the Jacobian
     is stamped through flat slot indices into [t.vals] rather than
     [Matrix.add_to].
   Index convention: residual indices [i] are raw [Netlist.node_index]
   values, 1-based with 0 = ground (dropped); Jacobian positions are the
   compile-time slot indices from [t.slots] (-1 = ground, dropped), which
   address the dense matrix buffer and the sparse value array uniformly. *)
let[@inline always] res_addi res i v =
  if i > 0 then res.(i - 1) <- res.(i - 1) +. v

let[@inline always] vadd vals s v =
  if s >= 0 then vals.(s) <- vals.(s) +. v

(* Backward-Euler / trapezoidal companion current of one charge slot.  The
   stamps and [keep_state] share it, so the kept state has the bits a
   stamping pass would write. *)
let[@inline always] companion ~factor ~trap q q_prev i_prev =
  (factor *. (q -. q_prev)) -. (if trap then i_prev else 0.0)

(* One charge row of the analytic MOSFET stamp: companion current plus the
   [factor]-scaled transcapacitance row.  [sl] is the element's 16-slot
   terminal block; row [c]'s four column slots sit at [4*c ..], matching the
   [dq] layout.  Toplevel + forced inline for the reasons above. *)
let[@inline always] stamp_charge_row vals res ~sl ~factor ~trap ~q_out
    ~i_out ~q_prev ~i_prev ~off ~dq c row_idx =
  let i =
    companion ~factor ~trap q_out.(off + c) q_prev.(off + c) i_prev.(off + c)
  in
  i_out.(off + c) <- i;
  res_addi res row_idx i;
  let o = 4 * c in
  vadd vals sl.(o) (factor *. dq.(o));
  vadd vals sl.(o + 1) (factor *. dq.(o + 1));
  vadd vals sl.(o + 2) (factor *. dq.(o + 2));
  vadd vals sl.(o + 3) (factor *. dq.(o + 3))

let[@inline always] same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The outputs of MOSFET element [k] (charge offset [off]): the kept ones
   when its last call had the same voltage bits (not [=]: a model may tell
   -0. from 0.), else a new call into its kept buffer.  The key is NaN
   during the call, so a model that raises leaves no stale key (a NaN
   voltage fails Newton through the gmin floor anyway). *)
let[@inline always] mosfet_outputs t k ~off ~vg ~vd ~vs ~vb =
  let kv = t.kept_v in
  if
    not (same_bits kv.(off) vg && same_bits kv.(off + 1) vd
         && same_bits kv.(off + 2) vs && same_bits kv.(off + 3) vb)
  then begin
    kv.(off) <- Float.nan;
    bump t c_model 1;
    t.derivs.(k) ~vg ~vd ~vs ~vb t.kept.(k);
    kv.(off) <- vg;
    kv.(off + 1) <- vd;
    kv.(off + 2) <- vs;
    kv.(off + 3) <- vb
  end;
  t.kept.(k)

(* Assemble Jacobian and residual at candidate [x] into the instance
   workspace (t.jac, t.res); also writes the present element charges into
   [t.q_work] and (in transient) terminal currents into [t.i_work].
   Sources are evaluated at time [t.now.(0)].  Each MOSFET is evaluated
   once, or not at all when its terminal voltages are those of its kept
   evaluation (a converged point's, or the previous pass's): model outputs
   are a pure function of the four voltages, so the kept outputs are the
   bits a new call would return.

   Allocation-free, with two documented exceptions: [Waveform.value]
   (out-of-line, so each source evaluation boxes its time argument and
   result) and the MOSFET's [eval_derivs] indirect call (a closure call
   boxes its four float arguments).  The zero-allocation gate therefore
   measures a source-free RC circuit; see test/test_lint.ml. *)
let[@vstat.hot] assemble t ~mode ~x ~q_prev ~i_prev ~gmin ~sscale =
  let nn = t.nn in
  let vals = t.vals and res = t.res in
  let slots = t.slots in
  let q_out = t.q_work and i_out = t.i_work in
  let time = t.now.(0) in
  bump t c_assembly 1;
  Array.fill vals 0 (Array.length vals) 0.0;
  Array.fill res 0 (Array.length res) 0.0;
  let diag = t.diag_slots in
  for i = 0 to nn - 1 do
    let s = diag.(i) in
    vals.(s) <- vals.(s) +. gmin;
    res.(i) <- res.(i) +. (gmin *. x.(i))
  done;
  let elems = t.elems in
  let branch = ref 0 in
  for k = 0 to Array.length elems - 1 do
    match elems.(k) with
    | Netlist.Resistor { a; b; ohms; _ } ->
      let ia = Netlist.node_index a and ib = Netlist.node_index b in
      let sl = slots.(k) in
      let g = 1.0 /. ohms in
      let i = g *. (nodev x a -. nodev x b) in
      res_addi res ia i;
      res_addi res ib (-.i);
      vadd vals sl.(0) g;
      vadd vals sl.(1) (-.g);
      vadd vals sl.(2) (-.g);
      vadd vals sl.(3) g
    | Netlist.Capacitor { a; b; farads; _ } ->
      let ia = Netlist.node_index a and ib = Netlist.node_index b in
      let q = farads *. (nodev x a -. nodev x b) in
      let off = t.charge_offset.(k) in
      q_out.(off) <- q;
      (match mode with
      | Dc -> i_out.(off) <- 0.0
      | Tran { h; trap } ->
        let factor = (if trap then 2.0 else 1.0) /. h in
        let i = companion ~factor ~trap q q_prev.(off) i_prev.(off) in
        i_out.(off) <- i;
        let geq = factor *. farads in
        let sl = slots.(k) in
        res_addi res ia i;
        res_addi res ib (-.i);
        vadd vals sl.(0) geq;
        vadd vals sl.(1) (-.geq);
        vadd vals sl.(2) (-.geq);
        vadd vals sl.(3) geq)
    | Netlist.Vsource { plus; minus; wave; _ } ->
      let ip = Netlist.node_index plus and im = Netlist.node_index minus in
      let col = nn + !branch in
      let row = nn + !branch in
      incr branch;
      let sl = slots.(k) in
      let ibr = x.(col) in
      res_addi res ip ibr;
      res_addi res im (-.ibr);
      vadd vals sl.(0) 1.0;
      vadd vals sl.(1) (-1.0);
      res.(row) <-
        nodev x plus -. nodev x minus -. (sscale *. Waveform.value wave time);
      vadd vals sl.(2) 1.0;
      vadd vals sl.(3) (-1.0)
    | Netlist.Isource { from_; to_; wave; _ } ->
      let ifr = Netlist.node_index from_ and ito = Netlist.node_index to_ in
      let i = sscale *. Waveform.value wave time in
      res_addi res ifr i;
      res_addi res ito (-.i)
    | Netlist.Mosfet { d; g; s; b; _ } ->
      let ni_d = Netlist.node_index d and ni_s = Netlist.node_index s in
      let vg = nodev x g and vd = nodev x d and vs = nodev x s
      and vb = nodev x b in
      let off = t.charge_offset.(k) in
      let sl = slots.(k) in
      (* One model call (or the kept one) yields values, conductances and
         the 4x4 transcapacitance block. *)
      let db = mosfet_outputs t k ~off ~vg ~vd ~vs ~vb in
      let did = db.Vstat_device.Device_model.did
      and dq = db.Vstat_device.Device_model.dq in
      (* Channel current: slot-block rows d (1) and s (2), columns in
         terminal order g, d, s, b. *)
      res_addi res ni_d db.v_id;
      res_addi res ni_s (-.db.v_id);
      vadd vals sl.(4) did.(0);
      vadd vals sl.(5) did.(1);
      vadd vals sl.(6) did.(2);
      vadd vals sl.(7) did.(3);
      vadd vals sl.(8) (-.did.(0));
      vadd vals sl.(9) (-.did.(1));
      vadd vals sl.(10) (-.did.(2));
      vadd vals sl.(11) (-.did.(3));
      (* Terminal charges. *)
      q_out.(off) <- db.v_qg;
      q_out.(off + 1) <- db.v_qd;
      q_out.(off + 2) <- db.v_qs;
      q_out.(off + 3) <- db.v_qb;
      (match mode with
      | Dc ->
        for c = 0 to 3 do
          i_out.(off + c) <- 0.0
        done
      | Tran { h; trap } ->
        let factor = (if trap then 2.0 else 1.0) /. h in
        stamp_charge_row vals res ~sl ~factor ~trap ~q_out ~i_out
          ~q_prev ~i_prev ~off ~dq 0 (Netlist.node_index g);
        stamp_charge_row vals res ~sl ~factor ~trap ~q_out ~i_out
          ~q_prev ~i_prev ~off ~dq 1 ni_d;
        stamp_charge_row vals res ~sl ~factor ~trap ~q_out ~i_out
          ~q_prev ~i_prev ~off ~dq 2 ni_s;
        stamp_charge_row vals res ~sl ~factor ~trap ~q_out ~i_out
          ~q_prev ~i_prev ~off ~dq 3 (Netlist.node_index b))
  done

(* The charge state at an accepted [x], without stamping: what a last
   [assemble] at [x] would leave in [t.q_work]/[t.i_work].  The MOSFETs'
   kept evaluation becomes [x]'s, so the next pass at [x] (the next step's
   first Newton iteration, a retried step, a DC sweep's next point) calls
   no model. *)
let[@vstat.hot] keep_state t ~mode ~x ~q_prev ~i_prev =
  let q_out = t.q_work and i_out = t.i_work in
  let elems = t.elems in
  for k = 0 to Array.length elems - 1 do
    let off = t.charge_offset.(k) in
    match elems.(k) with
    | Netlist.Capacitor { a; b; farads; _ } ->
      q_out.(off) <- farads *. (nodev x a -. nodev x b)
    | Netlist.Mosfet { d; g; s; b; _ } ->
      let db =
        mosfet_outputs t k ~off ~vg:(nodev x g) ~vd:(nodev x d)
          ~vs:(nodev x s) ~vb:(nodev x b)
      in
      q_out.(off) <- db.v_qg;
      q_out.(off + 1) <- db.v_qd;
      q_out.(off + 2) <- db.v_qs;
      q_out.(off + 3) <- db.v_qb
    | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ -> ()
  done;
  match mode with
  | Dc -> Array.fill i_out 0 t.n_charges 0.0
  | Tran { h; trap } ->
    let factor = (if trap then 2.0 else 1.0) /. h in
    for c = 0 to t.n_charges - 1 do
      i_out.(c) <- companion ~factor ~trap q_out.(c) q_prev.(c) i_prev.(c)
    done

(* Why a Newton solve stopped; carries the data the diagnostics need. *)
type newton_outcome =
  | N_converged
  | N_max_iter of { iter : int; dmax : float }
  | N_singular of { iter : int; column : int; scale : float }
  | N_nonfinite of { iter : int }
  | N_work_cap

(* Newton iteration in place on [x] (normally [t.xws]).  On [N_converged]
   the solution is in [x] with the matching charge state in
   [t.q_work]/[t.i_work]; on any other outcome the contents of [x] are
   unspecified.  Sources are evaluated at time [t.now.(0)].

   A [while] loop over mutable locals rather than a recursive closure, and
   [Float.max]/[min]/[is_finite]/[Floatx.clamp] spelled as explicit
   branches: under classic ocamlopt the closure would be allocated per
   call and each out-of-line float call would box per unknown per
   iteration.  Outcome records are built on failure paths only, so the
   success path performs no allocation. *)
let[@vstat.hot] newton t ~mode ~x ~q_prev ~i_prev ~gmin ~sscale ~max_iter
    ~clamp =
  let n = unknowns t in
  let nn = t.nn in
  let rhs = t.rhs in
  let outcome = ref N_converged in
  let running = ref true in
  let iter = ref 0 in
  let last_dmax = ref Float.infinity in
  while !running do
    if !iter >= max_iter then begin
      outcome := N_max_iter { iter = !iter; dmax = !last_dmax };
      running := false
    end
    else if t.work_used >= t.work_cap then begin
      outcome := N_work_cap;
      running := false
    end
    else begin
      bump t c_newton 1;
      t.work_used <- t.work_used + 1;
      assemble t ~mode ~x ~q_prev ~i_prev ~gmin ~sscale;
      for i = 0 to n - 1 do
        rhs.(i) <- -.t.res.(i)
      done;
      bump t c_lu 1;
      match
        (match t.solver with
        | S_dense ->
          ignore
            (Vstat_linalg.Lu.factor_in_place t.jac ~pivots:t.pivots : int)
        | S_sparse num -> Vstat_linalg.Sparse.factor num)
      with
      | exception Vstat_linalg.Lu.Singular { column; scale } ->
        outcome := N_singular { iter = !iter; column; scale };
        running := false
      | () ->
        (match t.solver with
        | S_dense ->
          Vstat_linalg.Lu.solve_in_place ~lu:t.jac ~pivots:t.pivots rhs
        | S_sparse num -> Vstat_linalg.Sparse.solve_in_place num rhs);
        let finite = ref true in
        for i = 0 to n - 1 do
          (* [v -. v] is 0 for finite v and NaN for NaN/infinity — the
             exact comparison is the point of the test. *)
          let v = rhs.(i) in
          if ((v -. v <> 0.0) [@vstat.allow "float-compare"]) then
            finite := false
        done;
        if not !finite then begin
          outcome := N_nonfinite { iter = !iter };
          running := false
        end
        else begin
          (* Damp voltage updates; exponential nonlinearities diverge under
             full Newton steps far from the solution. *)
          let dmax = ref 0.0 in
          for i = 0 to n - 1 do
            let u = rhs.(i) in
            let d =
              if i < nn then
                if u < -.clamp then -.clamp
                else if u > clamp then clamp
                else u
              else u
            in
            x.(i) <- x.(i) +. d;
            let ad = Float.abs d in
            if i < nn then begin
              if ad > !dmax then dmax := ad
            end
            else begin
              let ax = Float.abs x.(i) in
              let rel = ad /. (if ax > 1e-9 then ax else 1e-9) in
              let m = if rel < ad then rel else ad in
              if m > !dmax then dmax := m
            end
          done;
          last_dmax := !dmax;
          if !dmax < 1e-11 then begin
            keep_state t ~mode ~x ~q_prev ~i_prev;
            outcome := N_converged;
            running := false
          end
          else incr iter
        end
    end
  done;
  !outcome

(* What a failed solve reports about its last failed Newton run: the
   iteration it stopped at, its last update norm and a singular-pivot
   detail suffix for the message.  Both LU paths report the pivot's
   original column, so it names the unknown directly. *)
let failure_context t = function
  | Some (N_max_iter { iter; dmax }) -> (Some iter, Some dmax, "")
  | Some (N_singular { iter; column; scale }) ->
    ( Some iter,
      None,
      Printf.sprintf "; singular pivot at unknown %d (%s, scale %g)" column
        (unknown_name t.netlist ~nn:t.nn ~vsrc_index:t.vsrc_index column)
        scale )
  | Some (N_nonfinite { iter }) -> (Some iter, None, "")
  | Some (N_converged | N_work_cap) | None -> (None, None, "")

type op = { x : float array; time : float }

(* DC continuation chain under a given option set.  Shares the caller's
   work budget (transient runs its t=0 operating point through here), so
   the public entry points reset [t.work_used] themselves. *)
let dc_core ?guess ~opts ~time t =
  let n = unknowns t in
  let x = t.xws in
  t.now.(0) <- time;
  let from_zero () = Array.fill x 0 (Array.length x) 0.0 in
  (* Failed stages, most recent first, for failure classification. *)
  let failed_stages = ref [] in
  let run ~stage ~gmin ~sscale =
    match
      newton t ~mode:Dc ~x ~q_prev:t.q_work ~i_prev:t.i_work ~gmin ~sscale
        ~max_iter:opts.max_iter_dc ~clamp:opts.damping_clamp
    with
    | N_converged -> true
    | N_work_cap ->
      flush_counters t;
      Diag.fail ~time ~stage ~counters:(counter_snapshot t) ~analysis:"dc"
        Work_cap_exceeded "work cap %d exhausted" t.work_cap
    | outcome ->
      failed_stages := (stage, outcome) :: !failed_stages;
      false
  in
  let floor = opts.gmin_floor in
  (match guess with
  | Some g -> Array.blit g 0 x 0 n
  | None -> from_zero ());
  let converged =
    run ~stage:"direct" ~gmin:floor ~sscale:1.0
    || begin
         (* gmin stepping, finishing at the exact gmin floor. *)
         from_zero ();
         let rec gmin_steps = function
           | [] -> run ~stage:"gmin-final" ~gmin:floor ~sscale:1.0
           | g :: rest ->
             run ~stage:(Printf.sprintf "gmin=%g" g) ~gmin:g ~sscale:1.0
             && gmin_steps rest
         in
         gmin_steps opts.gmin_ladder
       end
    || begin
         (* Source stepping with a mild gmin, then a final exact solve. *)
         from_zero ();
         let rec src_steps = function
           | [] -> run ~stage:"src-final" ~gmin:floor ~sscale:1.0
           | sc :: rest ->
             run ~stage:(Printf.sprintf "src=%g" sc) ~gmin:1e-9 ~sscale:sc
             && src_steps rest
         in
         src_steps opts.source_ladder
       end
  in
  flush_counters t;
  if converged then { x = Array.sub x 0 n; time }
  else begin
    let fails = !failed_stages in
    let all_singular =
      fails <> []
      && List.for_all (function _, N_singular _ -> true | _ -> false) fails
    in
    let any_nonfinite =
      List.exists (function _, N_nonfinite _ -> true | _ -> false) fails
    in
    let kind : Diag.kind =
      if all_singular then Singular_jacobian
      else if any_nonfinite then Nonfinite_update
      else Dc_no_convergence
    in
    let stage, last =
      match fails with
      | (stage, outcome) :: _ -> (Some stage, Some outcome)
      | [] -> (None, None)
    in
    let newton_iter, dmax, detail = failure_context t last in
    Diag.fail ~time ?newton_iter ?stage ?dmax ~counters:(counter_snapshot t)
      ~analysis:"dc" kind "all continuation strategies failed (%d stages)%s"
      (List.length fails) detail
  end

let dc ?guess t =
  let opts = current_options () in
  t.work_used <- 0;
  t.work_cap <- opts.work_cap;
  dc_core ?guess ~opts ~time:0.0 t

let voltage _t op n = nodev op.x n

let branch_slot_named t ~caller name =
  match List.assoc_opt name t.vsrc_index with
  | Some k -> t.nn + k
  | None ->
    invalid_arg
      (Printf.sprintf "%s: unknown voltage source %S (known: %s)" caller name
         (match t.vsrc_index with
         | [] -> "none"
         | l -> String.concat ", " (List.map fst l)))
    [@vstat.allow "exn-discipline"]

let source_current t op name =
  op.x.(branch_slot_named t ~caller:"Engine.source_current" name)

let branch_row t name = branch_slot_named t ~caller:"Engine.branch_row" name

type trace = { times : float array; states : float array array }

(* Union of waveform corner times of every independent source, sorted and
   deduplicated; the transient stepper lands on these exactly instead of
   straddling them. *)
let source_breakpoints t ~tstop =
  let acc = ref [] in
  Array.iter
    (fun e ->
      match e with
      | Netlist.Vsource { wave; _ } | Netlist.Isource { wave; _ } ->
        acc := List.rev_append (Waveform.breakpoints wave ~tstop) !acc
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mosfet _ -> ())
    t.elems;
  let sorted = List.sort_uniq Float.compare !acc in
  Array.of_list sorted

(* The integration loop appends each accepted step to flat trace buffers,
   so the steady-state loop performs no per-step allocation; slicing them
   into per-step rows at the end is the one O(steps) allocation, and the
   zero-allocation gate in test/test_lint.ml subtracts exactly the words of
   the returned trace. *)
let[@vstat.entry] transient t ~tstop ~dt =
  let opts = current_options () in
  let trap = opts.trap in
  let dt = dt *. opts.dt_scale in
  t.work_used <- 0;
  t.work_cap <- opts.work_cap;
  (* The t=0 operating point shares this solve's work budget. *)
  let start = dc_core ~opts ~time:0.0 t in
  let n = unknowns t in
  let nq = Int.max t.n_charges 1 in
  (* [dc_core]'s converged solve left the t = 0 charge state in [t.q_work]
     and [t.i_work]. *)
  let q_prev = ref (Array.copy t.q_work) in
  let i_prev = ref (Array.make nq 0.0) in
  Array.blit t.i_work 0 !i_prev 0 nq;
  let x = Array.copy start.x in
  (* Growable trace storage: a flat row-major state buffer doubled on
     demand.  The append is written inline (not a [push] closure): a local
     closure taking a float argument would allocate the closure per run and
     box the time argument per step. *)
  let cap = ref 256 in
  let times_buf = ref (Array.make !cap 0.0) in
  let states_buf = ref (Array.make (!cap * Int.max n 1) 0.0) in
  let len = ref 0 in
  !times_buf.(0) <- 0.0;
  Array.blit x 0 !states_buf 0 n;
  len := 1;
  let bps = source_breakpoints t ~tstop in
  let n_bps = Array.length bps in
  let bp_tol = dt *. 1e-9 in
  let bp_idx = ref 0 in
  while !bp_idx < n_bps && bps.(!bp_idx) <= bp_tol do
    incr bp_idx
  done;
  let time = ref 0.0 in
  let h = ref dt in
  let dt_min = dt *. opts.dt_min_factor in
  let last_reject = ref None in
  (* Step-mode cache: in steady state every step has h = dt, so the [Tran]
     record is rebuilt only when the step size actually changes (step
     rejection, breakpoint truncation, the final partial step) instead of
     once per step. *)
  let mode = ref (Tran { h = dt; trap }) in
  let mode_h = ref dt in
  while !time < tstop -. 1e-18 do
    let rem = tstop -. !time in
    let h_nat = if !h < rem then !h else rem in
    (* Truncate (or slightly stretch) the step to land on the next source
       corner, so sharp input edges are never straddled. *)
    let hit_bp =
      !bp_idx < n_bps && bps.(!bp_idx) -. !time <= h_nat +. bp_tol
    in
    let t_next = if hit_bp then bps.(!bp_idx) else !time +. h_nat in
    let h_now = t_next -. !time in
    (* Exact equality is the correct cache test here: any other h must
       rebuild the mode record. *)
    if ((h_now <> !mode_h) [@vstat.allow "float-compare"]) then begin
      mode := Tran { h = h_now; trap };
      mode_h := h_now
    end;
    t.now.(0) <- t_next;
    Array.blit x 0 t.xws 0 n;
    match
      newton t ~mode:!mode ~x:t.xws ~q_prev:!q_prev ~i_prev:!i_prev
        ~gmin:opts.gmin_floor ~sscale:1.0 ~max_iter:opts.max_iter_tran
        ~clamp:opts.damping_clamp
    with
    | N_converged ->
      bump t c_accepted 1;
      t.work_used <- t.work_used + 1;
      time := t_next;
      Array.blit t.xws 0 x 0 n;
      (* Double-buffer swap: the accepted charges in [t.q_work]/[t.i_work]
         become the previous state, the old buffers become scratch. *)
      let qt = t.q_work in
      t.q_work <- !q_prev;
      q_prev := qt;
      let it = t.i_work in
      t.i_work <- !i_prev;
      i_prev := it;
      if !len = !cap then begin
        let cap' = 2 * !cap in
        let tb = Array.make cap' 0.0 in
        Array.blit !times_buf 0 tb 0 !len;
        times_buf := tb;
        let sb = Array.make (cap' * Int.max n 1) 0.0 in
        Array.blit !states_buf 0 sb 0 (!len * n);
        states_buf := sb;
        cap := cap'
      end;
      !times_buf.(!len) <- t_next;
      Array.blit x 0 !states_buf (!len * n) n;
      incr len;
      if hit_bp then begin
        bump t c_breakpoint 1;
        while !bp_idx < n_bps && bps.(!bp_idx) <= !time +. bp_tol do
          incr bp_idx
        done
      end;
      h := (let g = !h *. 1.4 in if g > dt then dt else g)
    | N_work_cap ->
      flush_counters t;
      Diag.fail ~time:!time ~counters:(counter_snapshot t)
        ~analysis:"transient" Work_cap_exceeded "work cap %d exhausted"
        t.work_cap
    | outcome ->
      bump t c_rejected 1;
      last_reject := Some outcome;
      h := h_now /. 2.0;
      if !h < dt_min then begin
        flush_counters t;
        (* The floor itself is the symptom; classify by what kept killing
           the steps on the way down. *)
        let kind : Diag.kind =
          match !last_reject with
          | Some (N_nonfinite _) -> Nonfinite_update
          | Some (N_singular _) -> Singular_jacobian
          | _ -> Tran_step_floor
        in
        let newton_iter, dmax, detail = failure_context t !last_reject in
        Diag.fail ~time:!time ?newton_iter ?dmax
          ~stage:(Printf.sprintf "h=%.3e dt_min=%.3e" !h dt_min)
          ~counters:(counter_snapshot t) ~analysis:"transient" kind
          "step rejected below dt_min%s" detail
      end
  done;
  flush_counters t;
  {
    times = Array.sub !times_buf 0 !len;
    states = Array.init !len (fun k -> Array.sub !states_buf (k * n) n);
  }

let node_wave _t trace n =
  let i = Netlist.node_index n in
  Array.map (fun x -> if i = 0 then 0.0 else x.(i - 1)) trace.states

(* Gather the assembled Jacobian (whatever the backend) into a fresh dense
   matrix.  Cold: used by linearize and by dense-vs-sparse cross-checks. *)
let dense_of_assembled t =
  let n = unknowns t in
  let m = Vstat_linalg.Matrix.create ~rows:n ~cols:n in
  (match t.solver with
  | S_dense ->
    let d = Vstat_linalg.Matrix.buffer m in
    Array.blit t.vals 0 d 0 (n * n)
  | S_sparse num ->
    Vstat_linalg.Sparse.iter_entries num ~f:(fun ~row ~col v ->
        Vstat_linalg.Matrix.set m row col v));
  m

let linearize t op =
  let n = unknowns t in
  Array.blit op.x 0 t.xws 0 n;
  t.now.(0) <- op.time;
  assemble t ~mode:Dc ~x:t.xws ~q_prev:t.q_work ~i_prev:t.i_work ~gmin:1e-12
    ~sscale:1.0;
  let jac_dc = dense_of_assembled t in
  (* With h = 1 and the charge state equal to the operating-point charges,
     the transient Jacobian is exactly G + C. *)
  let q0 = Array.copy t.q_work and i0 = Array.copy t.i_work in
  assemble t
    ~mode:(Tran { h = 1.0; trap = false })
    ~x:t.xws ~q_prev:q0 ~i_prev:i0 ~gmin:1e-12 ~sscale:1.0;
  flush_counters t;
  (jac_dc, Vstat_linalg.Matrix.sub (dense_of_assembled t) jac_dc)
