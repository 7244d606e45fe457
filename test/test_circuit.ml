(* Tests for the MNA circuit simulator: stamps, DC, transient, sweeps and
   measurements — validated against hand-computable circuits. *)

module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module M = Vstat_circuit.Measure
module Dm = Vstat_device.Device_model
module Cards = Vstat_device.Cards

(* tiny local bisection helper to avoid depending on vstat_opt here *)
module Vstat_opt_shim = struct
  let bisect f lo hi =
    let lo = ref lo and hi = ref hi in
    let flo = f !lo in
    if flo *. f !hi > 0.0 then invalid_arg "shim bisect: no bracket";
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if f mid *. flo > 0.0 then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
end

let vdd = Cards.vdd_nominal

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Waveform --- *)

let test_waveform_dc_var () =
  check_float "dc" 5.0 (W.value (W.Dc 5.0) 123.0);
  let r = ref 1.0 in
  let w = W.Var r in
  check_float "var" 1.0 (W.value w 0.0);
  r := 2.0;
  check_float "var updated" 2.0 (W.value w 0.0)

let test_waveform_pulse () =
  let p =
    W.Pulse
      { low = 0.0; high = 1.0; delay = 10.0; rise = 2.0; fall = 2.0;
        width = 5.0; period = 20.0 }
  in
  check_float "before" 0.0 (W.value p 5.0);
  check_float "mid rise" 0.5 (W.value p 11.0);
  check_float "plateau" 1.0 (W.value p 14.0);
  check_float "mid fall" 0.5 (W.value p 18.0);
  check_float "after fall" 0.0 (W.value p 19.5);
  check_float "periodic" 1.0 (W.value p 34.0)

let test_waveform_pwl () =
  let w = W.pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, 2.0) |] in
  check_float "clamp left" 0.0 (W.value w (-5.0));
  check_float "interp" 1.0 (W.value w 0.5);
  check_float "flat" 2.0 (W.value w 2.0);
  check_float "clamp right" 2.0 (W.value w 10.0)

(* --- DC: linear circuits with known solutions --- *)

let test_resistor_divider () =
  let c = N.create () in
  let gnd = N.ground c in
  let top = N.node c "top" in
  let mid = N.node c "mid" in
  N.vsource c "v1" ~plus:top ~minus:gnd ~wave:(W.Dc 10.0);
  N.resistor c "r1" ~a:top ~b:mid ~ohms:1000.0;
  N.resistor c "r2" ~a:mid ~b:gnd ~ohms:3000.0;
  let eng = E.compile c in
  let op = E.dc eng in
  check_float ~eps:1e-7 "divider" 7.5 (E.voltage eng op mid);
  (* Current through the source: 10 V across 4 kOhm; it flows out of the
     plus terminal, so the branch current is negative. *)
  check_float ~eps:1e-9 "source current" (-0.0025) (E.source_current eng op "v1")

let test_current_source_into_resistor () =
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  (* 1 mA pushed from ground into n1 through the source. *)
  N.isource c "i1" ~from_:gnd ~to_:n1 ~wave:(W.Dc 1e-3);
  N.resistor c "r" ~a:n1 ~b:gnd ~ohms:2000.0;
  let eng = E.compile c in
  let op = E.dc eng in
  check_float ~eps:1e-7 "ohm's law" 2.0 (E.voltage eng op n1)

let test_two_sources_superposition () =
  let c = N.create () in
  let gnd = N.ground c in
  let a = N.node c "a" in
  let b = N.node c "b" in
  N.vsource c "va" ~plus:a ~minus:gnd ~wave:(W.Dc 1.0);
  N.vsource c "vb" ~plus:b ~minus:gnd ~wave:(W.Dc 2.0);
  N.resistor c "r" ~a ~b ~ohms:1000.0;
  let eng = E.compile c in
  let op = E.dc eng in
  (* 1 mA flows from b to a; at va it enters the plus terminal. *)
  check_float ~eps:1e-9 "va branch" 1e-3 (E.source_current eng op "va");
  check_float ~eps:1e-9 "vb branch" (-1e-3) (E.source_current eng op "vb")

let test_floating_node_gmin () =
  (* A node connected only through a capacitor must still solve in DC
     thanks to the gmin floor. *)
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:1e-15;
  let eng = E.compile c in
  let op = E.dc eng in
  check_float ~eps:1e-6 "floating node at 0" 0.0 (E.voltage eng op n1)

(* --- DC: CMOS inverter --- *)

(* The same device with [eval_derivs] replaced by one-sided finite
   differences of its [eval] (step 1e-6 V, 5 evaluations per call): the
   reference the analytic linearization is checked against. *)
let fd_device (d : Dm.t) =
  let dv = 1e-6 in
  let charges (st : Dm.terminal_state) = [| st.qg; st.qd; st.qs; st.qb |] in
  let eval_derivs ~vg ~vd ~vs ~vb (out : Dm.derivs) =
    let base = d.eval ~vg ~vd ~vs ~vb in
    let q = charges base in
    out.v_id <- base.id;
    out.v_qg <- base.qg;
    out.v_qd <- base.qd;
    out.v_qs <- base.qs;
    out.v_qb <- base.qb;
    Array.iteri
      (fun j (p : Dm.terminal_state) ->
        out.did.(j) <- (p.id -. base.id) /. dv;
        let qp = charges p in
        for c = 0 to 3 do
          out.dq.((4 * c) + j) <- (qp.(c) -. q.(c)) /. dv
        done)
      [|
        d.eval ~vg:(vg +. dv) ~vd ~vs ~vb;
        d.eval ~vg ~vd:(vd +. dv) ~vs ~vb;
        d.eval ~vg ~vd ~vs:(vs +. dv) ~vb;
        d.eval ~vg ~vd ~vs ~vb:(vb +. dv);
      |]
  in
  { d with eval_derivs = Some eval_derivs }

(* [calls], when given, counts every model call the engine makes. *)
let build_inverter ?(fd_derivs = false) ?calls ?(w_in = W.Dc 0.0) () =
  let c = N.create () in
  let gnd = N.ground c in
  let nvdd = N.node c "vdd" in
  let nin = N.node c "in" in
  let nout = N.node c "out" in
  let counted (d : Dm.t) =
    match (calls, d.eval_derivs) with
    | Some n, Some ed ->
      let eval_derivs ~vg ~vd ~vs ~vb out =
        incr n;
        ed ~vg ~vd ~vs ~vb out
      in
      { d with eval_derivs = Some eval_derivs }
    | _ -> d
  in
  let dev d = counted (if fd_derivs then fd_device d else d) in
  N.vsource c "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc vdd);
  N.vsource c "vin" ~plus:nin ~minus:gnd ~wave:w_in;
  N.mosfet c "mp" ~d:nout ~g:nin ~s:nvdd ~b:nvdd
    ~dev:(dev (Cards.bsim_device ~polarity:Dm.Pmos ~w_nm:600.0 ~l_nm:40.0));
  N.mosfet c "mn" ~d:nout ~g:nin ~s:gnd ~b:gnd
    ~dev:(dev (Cards.bsim_device ~polarity:Dm.Nmos ~w_nm:300.0 ~l_nm:40.0));
  N.capacitor c "cl" ~a:nout ~b:gnd ~farads:1e-15;
  (c, nin, nout)

let test_inverter_rails () =
  let c, _, nout = build_inverter ~w_in:(W.Dc 0.0) () in
  let eng = E.compile c in
  let op = E.dc eng in
  check_float ~eps:1e-3 "in=0 -> out=vdd" vdd (E.voltage eng op nout);
  let c, _, nout = build_inverter ~w_in:(W.Dc vdd) () in
  let eng = E.compile c in
  let op = E.dc eng in
  check_float ~eps:1e-3 "in=vdd -> out=0" 0.0 (E.voltage eng op nout)

let test_inverter_vtc_monotone () =
  let vin_ref = ref 0.0 in
  let c, _, nout = build_inverter ~w_in:(W.Var vin_ref) () in
  let eng = E.compile c in
  let values = Vstat_util.Floatx.linspace 0.0 vdd 31 in
  let outs =
    M.dc_sweep eng
      ~set:(fun v -> vin_ref := v)
      ~values
      ~probe:(fun op -> E.voltage eng op nout)
  in
  for i = 0 to Array.length outs - 2 do
    if outs.(i + 1) > outs.(i) +. 1e-6 then
      Alcotest.fail "VTC must be non-increasing"
  done;
  Alcotest.(check bool) "swings full rail" true
    (outs.(0) > 0.95 *. vdd && outs.(30) < 0.05 *. vdd)

(* --- transient: RC circuits vs analytic solutions --- *)

let test_rc_discharge () =
  (* Node starts at vdd (sourced), source steps to 0 at t=0+: V = vdd e^-t/RC *)
  let c = N.create () in
  let gnd = N.ground c in
  let drive = N.node c "drive" in
  let n1 = N.node c "n1" in
  let r = 1000.0 and cap = 1e-12 in
  N.vsource c "v1" ~plus:drive ~minus:gnd
    ~wave:(W.pwl [| (0.0, 1.0); (1e-12, 0.0) |]);
  N.resistor c "r1" ~a:drive ~b:n1 ~ohms:r;
  N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:cap;
  let eng = E.compile c in
  let tau = r *. cap in
  let trace = E.transient eng ~tstop:(5.0 *. tau) ~dt:(tau /. 200.0) in
  let times = trace.E.times in
  let wave = E.node_wave eng trace n1 in
  (* Compare at t = 2 tau (skip the 1 ps edge offset; it is << tau/10). *)
  let v_2tau =
    Vstat_util.Floatx.interp_linear ~xs:times ~ys:wave (2.0 *. tau)
  in
  check_float ~eps:5e-3 "exp decay at 2tau" (exp (-2.0)) v_2tau

let test_rc_charge_trapezoidal () =
  let c = N.create () in
  let gnd = N.ground c in
  let drive = N.node c "drive" in
  let n1 = N.node c "n1" in
  let r = 1000.0 and cap = 1e-12 in
  N.vsource c "v1" ~plus:drive ~minus:gnd
    ~wave:(W.pwl [| (0.0, 0.0); (1e-13, 1.0) |]);
  N.resistor c "r1" ~a:drive ~b:n1 ~ohms:r;
  N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:cap;
  let eng = E.compile c in
  let tau = r *. cap in
  let trace =
    E.with_options { E.default_options with trap = true } (fun () ->
        E.transient eng ~tstop:(3.0 *. tau) ~dt:(tau /. 100.0))
  in
  let v_tau =
    Vstat_util.Floatx.interp_linear ~xs:trace.E.times
      ~ys:(E.node_wave eng trace n1) tau
  in
  check_float ~eps:5e-3 "1 - e^-1 at tau" (1.0 -. exp (-1.0)) v_tau

let test_transient_conserves_dc_start () =
  let c, _, nout = build_inverter ~w_in:(W.Dc 0.0) () in
  let eng = E.compile c in
  let trace = E.transient eng ~tstop:10e-12 ~dt:1e-12 in
  let wave = E.node_wave eng trace nout in
  (* No input activity: output must hold its DC value. *)
  check_float ~eps:1e-4 "static output" wave.(0) wave.(Array.length wave - 1)

let test_inverter_switches_in_transient () =
  let c, nin, nout =
    build_inverter ~w_in:(W.pwl [| (20e-12, 0.0); (30e-12, vdd) |]) ()
  in
  let eng = E.compile c in
  let trace = E.transient eng ~tstop:150e-12 ~dt:0.5e-12 in
  let times = trace.E.times in
  let win = E.node_wave eng trace nin in
  let wout = E.node_wave eng trace nout in
  Alcotest.(check bool) "final low" true
    (wout.(Array.length wout - 1) < 0.05 *. vdd);
  match
    M.propagation_delay ~times ~input:win ~output:wout ~v50:(vdd /. 2.0)
      ~input_rising:true ~output_rising:false
  with
  | Some d -> Alcotest.(check bool) "positive sub-50ps delay" true (d > 0.0 && d < 50e-12)
  | None -> Alcotest.fail "expected a measured delay"

(* --- AC small-signal analysis --- *)

let test_ac_rc_lowpass () =
  (* Vsrc - R - node - C - gnd: |H| = 1/sqrt(1+(w R C)^2), fc = 1/(2 pi R C). *)
  let c = N.create () in
  let gnd = N.ground c in
  let src = N.node c "src" in
  let n1 = N.node c "n1" in
  let r = 1000.0 and cap = 1e-12 in
  N.vsource c "vin" ~plus:src ~minus:gnd ~wave:(W.Dc 0.0);
  N.resistor c "r1" ~a:src ~b:n1 ~ohms:r;
  N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:cap;
  let eng = E.compile c in
  let op = E.dc eng in
  let fc = 1.0 /. (2.0 *. Float.pi *. r *. cap) in
  let freqs = Vstat_util.Floatx.logspace (log10 fc -. 2.0) (log10 fc +. 2.0) 81 in
  let ac = Vstat_circuit.Ac.sweep eng ~op ~source:"vin" ~freqs_hz:freqs in
  let series = Vstat_circuit.Ac.node_transfer eng ac n1 in
  (* DC gain 1, -3dB at fc, -20 dB/decade asymptote. *)
  let mag_at f =
    let _, h =
      Array.fold_left
        (fun ((bf, _) as best) ((f', _) as cand) ->
          if Float.abs (log10 f' -. log10 f) < Float.abs (log10 bf -. log10 f)
          then cand
          else best)
        series.(0) series
    in
    Complex.norm h
  in
  check_float ~eps:0.01 "dc gain" 1.0 (mag_at (fc /. 100.0));
  check_float ~eps:0.02 "-3dB at fc" (1.0 /. sqrt 2.0) (mag_at fc);
  (* Phase approaches -90 degrees well above fc. *)
  let _, h_high = series.(Array.length series - 1) in
  Alcotest.(check bool) "phase -> -90deg" true
    (Vstat_circuit.Ac.phase_deg h_high < -80.0)

let test_ac_inverter_gain_matches_vtc_slope () =
  (* Low-frequency small-signal gain at the VTC midpoint must equal the
     local slope of the DC transfer curve. *)
  let vin_ref = ref 0.0 in
  let c, nin, nout = build_inverter ~w_in:(W.Var vin_ref) () in
  ignore nin;
  let eng = E.compile c in
  (* Find the input where out ~ vdd/2 (the high-gain point). *)
  let vm =
    Vstat_opt_shim.bisect
      (fun v ->
        vin_ref := v;
        E.voltage eng (E.dc eng) nout -. (vdd /. 2.0))
      0.2 0.7
  in
  vin_ref := vm;
  let op = E.dc eng in
  let ac =
    Vstat_circuit.Ac.sweep eng ~op ~source:"vin" ~freqs_hz:[| 1e3 |]
  in
  let gain = Complex.norm (snd (Vstat_circuit.Ac.node_transfer eng ac nout).(0)) in
  (* Numerical VTC slope. *)
  let dv = 1e-4 in
  vin_ref := vm +. dv;
  let v_plus = E.voltage eng (E.dc eng) nout in
  vin_ref := vm -. dv;
  let v_minus = E.voltage eng (E.dc eng) nout in
  let slope = Float.abs ((v_plus -. v_minus) /. (2.0 *. dv)) in
  Alcotest.(check bool) "gain matches slope within 5%" true
    (Float.abs (gain -. slope) < 0.05 *. slope);
  Alcotest.(check bool) "high gain stage" true (gain > 3.0)

(* --- engine bookkeeping --- *)

let test_unknown_source_raises () =
  let c, _, _ = build_inverter () in
  let eng = E.compile c in
  let op = E.dc eng in
  match E.source_current eng op "nope" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    (* The message should name the offending source. *)
    let contains sub s =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the source" true
      (contains "nope" msg)

(* The work [f] does, read off the process-wide totals: tests run on one
   domain, so that is exactly the work of the engines [f] drives. *)
let work f =
  let before = E.global_counters () in
  let r = f () in
  (r, E.counters_diff (E.global_counters ()) before)

let test_stats_counters_advance () =
  let c, _, _ = build_inverter () in
  let eng = E.compile c in
  let _, cnt = work (fun () -> E.dc eng) in
  Alcotest.(check bool) "evals counted" true (cnt.E.model_evaluations > 0);
  Alcotest.(check bool) "iters counted" true (cnt.E.newton_iterations > 0)

let test_transient_lands_on_waveform_corners () =
  (* PWL corners deliberately off the dt grid: the stepper must place a
     sample exactly on each corner instead of straddling it. *)
  let c = N.create () in
  let gnd = N.ground c in
  let drive = N.node c "drive" in
  let n1 = N.node c "n1" in
  let corners = [ 10.3e-12; 17.9e-12 ] in
  N.vsource c "v1" ~plus:drive ~minus:gnd
    ~wave:(W.pwl [| (10.3e-12, 0.0); (17.9e-12, 1.0) |]);
  N.resistor c "r1" ~a:drive ~b:n1 ~ohms:1000.0;
  N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:1e-15;
  let eng = E.compile c in
  let trace, cnt = work (fun () -> E.transient eng ~tstop:50e-12 ~dt:2e-12) in
  List.iter
    (fun corner ->
      let hit =
        Array.exists
          (fun t -> Float.abs (t -. corner) < 1e-20)
          trace.E.times
      in
      Alcotest.(check bool)
        (Printf.sprintf "sample at corner %.3g" corner)
        true hit)
    corners;
  Alcotest.(check bool)
    "breakpoint hits counted" true
    (cnt.E.breakpoint_hits >= List.length corners)

let test_counters_per_phase () =
  let calls = ref 0 in
  let c, _, _ =
    build_inverter ~calls ~w_in:(W.pwl [| (20e-12, 0.0); (30e-12, vdd) |]) ()
  in
  let eng = E.compile c in
  let trace, cnt = work (fun () -> E.transient eng ~tstop:100e-12 ~dt:1e-12) in
  (* One LU factorization and one assembly per Newton iteration: a
     converged solve keeps its charge state without stamping again. *)
  Alcotest.(check int) "lu = newton" cnt.E.newton_iterations
    cnt.E.lu_factorizations;
  Alcotest.(check int) "assemblies = newton" cnt.E.newton_iterations
    cnt.E.assemblies;
  Alcotest.(check int) "accepted steps = samples - 1"
    (Array.length trace.E.times - 1)
    cnt.E.accepted_steps;
  (* The counter counts the model calls made, and there is no FD path. *)
  Alcotest.(check int) "model evals = model calls" !calls
    cnt.E.model_evaluations;
  Alcotest.(check int) "no fd evals" 0 cnt.E.fd_evaluations;
  (* Each device is called at most once per pass (an assembly, or the
     converged solve's stamp-free pass), and not at all in a step's first
     iteration, which starts at the accepted point.  With the t = 0 DC
     solve converging in one stage, the 2 devices make at most
     2 x (newton + 1 - rejected) calls. *)
  Alcotest.(check bool)
    (Printf.sprintf "model evals %d <= 2 x (newton %d + 1 - rejected %d)"
       cnt.E.model_evaluations cnt.E.newton_iterations cnt.E.rejected_steps)
    true
    (cnt.E.model_evaluations
    <= 2 * (cnt.E.newton_iterations + 1 - cnt.E.rejected_steps))

let test_fd_fallback_matches_analytic () =
  (* Same inverter with finite-difference device derivatives: the FD
     Jacobian must converge to the same waveform. *)
  let edge = W.pwl [| (20e-12, 0.0); (30e-12, vdd) |] in
  let c1, _, nout1 = build_inverter ~w_in:edge () in
  let eng1 = E.compile c1 in
  let tr1 = E.transient eng1 ~tstop:100e-12 ~dt:1e-12 in
  let w1 = E.node_wave eng1 tr1 nout1 in
  let c2, _, nout2 = build_inverter ~fd_derivs:true ~w_in:edge () in
  let eng2 = E.compile c2 in
  let tr2 = E.transient eng2 ~tstop:100e-12 ~dt:1e-12 in
  let w2 = E.node_wave eng2 tr2 nout2 in
  Alcotest.(check int) "same sample count" (Array.length w1) (Array.length w2);
  Array.iteri
    (fun i v1 ->
      Alcotest.(check bool)
        (Printf.sprintf "waveforms agree at sample %d" i)
        true
        (Float.abs (v1 -. w2.(i)) < 1e-6))
    w1

let test_compile_rejects_missing_derivs () =
  (* [eval_derivs = None] is the one device shape the engine cannot
     linearize: compile refuses it and names the element and device. *)
  let c = N.create () in
  let gnd = N.ground c in
  let nd = N.node c "d" in
  N.vsource c "vd" ~plus:nd ~minus:gnd ~wave:(W.Dc vdd);
  let dev = Cards.bsim_device ~polarity:Dm.Nmos ~w_nm:300.0 ~l_nm:40.0 in
  N.mosfet c "mbare" ~d:nd ~g:nd ~s:gnd ~b:gnd
    ~dev:{ dev with Dm.name = "bare-nmos"; eval_derivs = None };
  match E.compile c with
  | _ -> Alcotest.fail "compile accepted a device without eval_derivs"
  | exception Invalid_argument msg ->
    let mentions sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "message names element and device: %s" msg)
      true
      (mentions "mbare" && mentions "bare-nmos")

let test_node_identity () =
  let c = N.create () in
  let a = N.node c "x" in
  let b = N.node c "x" in
  Alcotest.(check int) "same name same node" (N.node_index a) (N.node_index b);
  Alcotest.(check int) "ground is 0" 0 (N.node_index (N.ground c));
  Alcotest.(check string) "name roundtrip" "x" (N.node_name c a)

(* --- measure --- *)

let test_settled_value () =
  let values = Array.append (Array.make 90 0.0) (Array.make 10 1.0) in
  check_float "tail mean" 1.0 (M.settled_value ~values ~tail_fraction:0.1)

let test_propagation_delay_ignores_earlier_output_edges () =
  (* Output crosses before the input edge; the measurement must only count
     crossings after the input edge. *)
  let times = [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let input = [| 0.0; 0.0; 0.0; 1.0; 1.0; 1.0 |] in
  let output = [| 1.0; 0.0; 0.0; 0.0; 1.0; 1.0 |] in
  match
    M.propagation_delay ~times ~input ~output ~v50:0.5 ~input_rising:true
      ~output_rising:true
  with
  | Some d -> check_float ~eps:1e-12 "delay from input edge" 1.0 d
  | None -> Alcotest.fail "expected delay"

let test_propagation_delay_mid_segment_input_edge () =
  (* Regression: the input's 50 % crossing falls strictly inside a sample
     segment, and the output's crossing lies inside the very segment that
     contains the input edge.  The scan used to start at the next sample
     boundary, skipping that segment and reporting no delay at all. *)
  let times = [| 0.0; 1.0; 2.0; 3.0 |] in
  let input = [| 0.0; 0.0; 1.0; 1.0 |] in
  (* t_in = 1.5 *)
  let output = [| 0.0; 0.05; 0.85; 1.0 |] in
  (* output crosses 0.5 at t = 1 + 0.45/0.8 = 1.5625 *)
  match
    M.propagation_delay ~times ~input ~output ~v50:0.5 ~input_rising:true
      ~output_rising:true
  with
  | Some d -> check_float ~eps:1e-12 "mid-segment delay" 0.0625 d
  | None -> Alcotest.fail "expected delay (crossing shares input's segment)"

let test_propagation_delay_discards_pre_edge_crossing () =
  (* The output also crosses before the input edge inside the same segment;
     only the post-edge crossing counts. *)
  let times = [| 0.0; 2.0; 4.0 |] in
  let input = [| 0.0; 1.0; 1.0 |] in
  (* t_in = 1.0 *)
  let output = [| 0.0; 1.0; 1.0 |] in
  (* rising through 0.5 at t = 1.0 = t_in: kept (>= t_in) *)
  match
    M.propagation_delay ~times ~input ~output ~v50:0.5 ~input_rising:true
      ~output_rising:true
  with
  | Some d -> check_float ~eps:1e-12 "coincident edge" 0.0 d
  | None -> Alcotest.fail "expected zero delay"

(* Synthetic ramp pair: linear ramps interpolate exactly on any sampling
   grid, so the measured delay must equal the analytic 50 %-to-50 % offset
   regardless of where the samples fall. *)
let prop_ramp_pair_delay_exact =
  QCheck.Test.make ~name:"ramp-pair delay is grid-independent" ~count:200
    QCheck.(
      triple (float_range 0.05 0.3) (float_range 0.0 0.99)
        (float_range 0.1 2.5))
    (fun (step, phase, offset) ->
      let ramp t0 len t =
        Vstat_util.Floatx.clamp ~lo:0.0 ~hi:1.0 ((t -. t0) /. len)
      in
      let len = 2.0 in
      let t0_in = 2.0 in
      let t0_out = t0_in +. offset in
      let n = Float.to_int (Float.round ((10.0 -. (phase *. step)) /. step)) in
      let times =
        Array.init n (fun k -> (phase *. step) +. (step *. Float.of_int k))
      in
      let input = Array.map (ramp t0_in len) times in
      let output = Array.map (ramp t0_out len) times in
      match
        M.propagation_delay ~times ~input ~output ~v50:0.5 ~input_rising:true
          ~output_rising:true
      with
      | Some d -> Float.abs (d -. offset) < 1e-9
      | None -> false)

let rc_error ~trap ~dt =
  (* Sine-driven RC (smooth, so no startup-discontinuity error): exact
     response of y' = (u - y)/tau from y(0) = 0. *)
  let c = N.create () in
  let gnd = N.ground c in
  let drive = N.node c "drive" in
  let n1 = N.node c "n1" in
  let r = 1000.0 and cap = 1e-12 in
  let freq = 2e8 in
  N.vsource c "v1" ~plus:drive ~minus:gnd
    ~wave:(W.Sine { offset = 0.0; amplitude = 1.0; freq_hz = freq; phase = 0.0 });
  N.resistor c "r1" ~a:drive ~b:n1 ~ohms:r;
  N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:cap;
  let eng = E.compile c in
  let tau = r *. cap in
  let omega = 2.0 *. Float.pi *. freq in
  let wt = omega *. tau in
  let exact t =
    ((sin (omega *. t) -. (wt *. cos (omega *. t))) +. (wt *. exp (-.t /. tau)))
    /. (1.0 +. (wt *. wt))
  in
  let trace =
    E.with_options { E.default_options with trap } (fun () ->
        E.transient eng ~tstop:(3.0 *. tau) ~dt)
  in
  let wave = E.node_wave eng trace n1 in
  let err = ref 0.0 in
  Array.iteri
    (fun i t -> err := Float.max !err (Float.abs (wave.(i) -. exact t)))
    trace.E.times;
  !err

let test_integrator_convergence_order () =
  let tau = 1e-9 in
  (* Backward Euler: first order — halving dt roughly halves the error. *)
  let be1 = rc_error ~trap:false ~dt:(tau /. 50.0) in
  let be2 = rc_error ~trap:false ~dt:(tau /. 100.0) in
  let ratio_be = be1 /. be2 in
  Alcotest.(check bool) "BE ~ O(h)" true (ratio_be > 1.5 && ratio_be < 2.6);
  (* Trapezoidal: second order — halving dt quarters the error. *)
  let tr1 = rc_error ~trap:true ~dt:(tau /. 50.0) in
  let tr2 = rc_error ~trap:true ~dt:(tau /. 100.0) in
  let ratio_tr = tr1 /. tr2 in
  Alcotest.(check bool) "trap ~ O(h^2)" true (ratio_tr > 3.0 && ratio_tr < 5.5);
  (* And trapezoidal beats BE at equal step. *)
  Alcotest.(check bool) "trap more accurate" true (tr1 < be1)

(* --- failure injection --- *)

let conflicting_sources () =
  (* Two ideal voltage sources forcing different values on the same node:
     the MNA matrix is structurally singular. *)
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  N.vsource c "v1" ~plus:n1 ~minus:gnd ~wave:(W.Dc 1.0);
  N.vsource c "v2" ~plus:n1 ~minus:gnd ~wave:(W.Dc 2.0);
  E.compile c

let test_dc_no_convergence () =
  let eng = conflicting_sources () in
  match E.dc eng with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Vstat_circuit.Diag.Solver_error d ->
    Alcotest.(check bool) "classified as singular" true
      (d.Vstat_circuit.Diag.kind = Singular_jacobian);
    Alcotest.(check string) "dc analysis" "dc" d.Vstat_circuit.Diag.analysis

let test_transient_no_convergence () =
  let eng = conflicting_sources () in
  match E.transient eng ~tstop:1e-9 ~dt:1e-10 with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Vstat_circuit.Diag.Solver_error d ->
    Alcotest.(check bool) "classified as singular" true
      (d.Vstat_circuit.Diag.kind = Singular_jacobian)

module Diag = Vstat_circuit.Diag

let kind_of_exn = function
  | Diag.Solver_error d -> d.Diag.kind
  | e -> raise e

let test_floating_node_singular () =
  (* A node reached only through a capacitor has no DC path: with the gmin
     floor disabled the MNA matrix is exactly singular, and the diagnostic
     must say so rather than reporting a generic convergence failure. *)
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  let float_n = N.node c "float" in
  N.vsource c "v" ~plus:n1 ~minus:gnd ~wave:(W.Dc 1.0);
  N.capacitor c "c" ~a:n1 ~b:float_n ~farads:1e-15;
  let eng = E.compile c in
  let options = { E.default_options with E.gmin_floor = 0.0 } in
  (match E.with_options options (fun () -> E.dc eng) with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception e ->
    Alcotest.(check bool) "singular" true (kind_of_exn e = Singular_jacobian));
  (* The default gmin floor regularizes the same circuit. *)
  let op = E.dc eng in
  Alcotest.(check bool) "gmin floor rescues it" true
    (Float.is_finite (E.voltage eng op float_n))

let test_transient_step_floor_typed () =
  (* A moving source with the per-step Newton budget capped at one iteration
     can never accept a step: the halving cascade must bottom out in a typed
     Tran_step_floor diagnostic carrying the analysis context. *)
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  let n2 = N.node c "n2" in
  N.vsource c "v" ~plus:n1 ~minus:gnd
    ~wave:
      (W.Sine { W.offset = 0.0; amplitude = 1.0; freq_hz = 1e9; phase = 0.0 });
  N.resistor c "r" ~a:n1 ~b:n2 ~ohms:1e3;
  N.capacitor c "c" ~a:n2 ~b:gnd ~farads:1e-12;
  let eng = E.compile c in
  let options = { E.default_options with E.max_iter_tran = 1 } in
  match E.with_options options (fun () -> E.transient eng ~tstop:1e-9 ~dt:1e-10) with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Diag.Solver_error d ->
    Alcotest.(check bool) "step floor" true (d.Diag.kind = Tran_step_floor);
    Alcotest.(check string) "transient analysis" "transient" d.Diag.analysis;
    Alcotest.(check bool) "failure time recorded" true (Option.is_some d.Diag.time)

let test_work_cap_exceeded () =
  let c, _, _ = build_inverter () in
  let eng = E.compile c in
  let options = { E.default_options with E.work_cap = 2 } in
  (match E.with_options options (fun () -> E.dc eng) with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception e ->
    Alcotest.(check bool) "work cap" true (kind_of_exn e = Work_cap_exceeded));
  (* The counter snapshot travels with the diagnostic. *)
  match E.with_options options (fun () -> E.dc eng) with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Diag.Solver_error d ->
    Alcotest.(check bool) "counters attached" true (d.Diag.counters <> [])

(* Field-by-field identity of two option records, floats by their bits. *)
let same_options (a : E.solver_options) (b : E.solver_options) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  Int.equal a.max_iter_dc b.max_iter_dc
  && Int.equal a.max_iter_tran b.max_iter_tran
  && same a.damping_clamp b.damping_clamp
  && same a.gmin_floor b.gmin_floor
  && List.equal same a.gmin_ladder b.gmin_ladder
  && List.equal same a.source_ladder b.source_ladder
  && same a.dt_min_factor b.dt_min_factor
  && same a.dt_scale b.dt_scale
  && Bool.equal a.trap b.trap
  && Int.equal a.work_cap b.work_cap

let test_escalate_laws () =
  let o = E.default_options in
  Alcotest.(check bool) "attempt 0 is identity" true (E.escalate ~attempt:0 o == o);
  let o1 = E.escalate ~attempt:1 o in
  let bits = Int64.bits_of_float in
  (* First escalation is value-neutral: anything that could change the value
     of an already-successful solve must be untouched. *)
  Alcotest.(check bool) "attempt 1 keeps dt_scale" true
    (bits o1.E.dt_scale = bits o.E.dt_scale);
  Alcotest.(check bool) "attempt 1 keeps damping" true
    (bits o1.E.damping_clamp = bits o.E.damping_clamp);
  Alcotest.(check bool) "attempt 1 keeps gmin floor" true
    (bits o1.E.gmin_floor = bits o.E.gmin_floor);
  Alcotest.(check bool) "attempt 1 raises iteration caps" true
    (o1.E.max_iter_dc > o.E.max_iter_dc
    && o1.E.max_iter_tran > o.E.max_iter_tran);
  let o2 = E.escalate ~attempt:2 o in
  Alcotest.(check bool) "attempt 2 shrinks steps" true
    (o2.E.dt_scale < o.E.dt_scale && o2.E.damping_clamp < o.E.damping_clamp);
  Alcotest.(check bool) "escalate is deterministic" true
    (same_options (E.escalate ~attempt:3 o) (E.escalate ~attempt:3 o));
  (* Behavioral value-neutrality: a solve that succeeds under the defaults
     produces the bit-identical operating point under attempt-1 options. *)
  let c, _, _ = build_inverter () in
  let eng = E.compile c in
  let op0 = E.dc eng in
  let op1 = E.with_options o1 (fun () -> E.dc eng) in
  Alcotest.(check bool) "bit-identical op" true
    (Array.map bits op0.E.x = Array.map bits op1.E.x)

let test_netlist_validation () =
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  (match N.resistor c "r" ~a:n1 ~b:gnd ~ohms:0.0 with
  | _ -> Alcotest.fail "zero ohms accepted"
  | exception Invalid_argument _ -> ());
  match N.capacitor c "c" ~a:n1 ~b:gnd ~farads:(-1e-15) with
  | _ -> Alcotest.fail "negative farads accepted"
  | exception Invalid_argument _ -> ()

let test_pwl_empty_rejected () =
  match W.value (W.pwl [||]) 0.0 with
  | _ -> Alcotest.fail "empty pwl accepted"
  | exception Invalid_argument _ -> ()

(* --- qcheck: random RC ladders solve and are stable --- *)

let prop_rc_ladder_stable =
  QCheck.Test.make ~name:"random RC ladders settle to the source value"
    ~count:25
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (stages, seed) ->
      let rng = Vstat_util.Rng.create ~seed in
      let c = N.create () in
      let gnd = N.ground c in
      let src = N.node c "src" in
      N.vsource c "v" ~plus:src ~minus:gnd
        ~wave:(W.pwl [| (0.0, 0.0); (1e-12, 1.0) |]);
      let prev = ref src in
      for i = 1 to stages do
        let n = N.node c (Printf.sprintf "n%d" i) in
        N.resistor c (Printf.sprintf "r%d" i) ~a:!prev ~b:n
          ~ohms:(Vstat_util.Rng.uniform rng ~lo:100.0 ~hi:10_000.0);
        N.capacitor c (Printf.sprintf "c%d" i) ~a:n ~b:gnd
          ~farads:(Vstat_util.Rng.uniform rng ~lo:1e-15 ~hi:1e-13);
        prev := n
      done;
      let eng = E.compile c in
      (* Worst-case time constant bound: all R and C at max, times stages^2. *)
      let trace = E.transient eng ~tstop:100e-9 ~dt:0.5e-9 in
      let final = (E.node_wave eng trace !prev).(Array.length trace.E.times - 1) in
      Float.abs (final -. 1.0) < 0.01)

(* --- Dense vs sparse backend cross-check --- *)

(* An RC ladder with MOS loads, sized past the Auto threshold: every
   element kind (vsource, resistor, capacitor, mosfet) stamps into the
   sparse pattern, and the dense backend is the oracle. *)
let build_big_ladder ~sections =
  let c = N.create () in
  let gnd = N.ground c in
  let nvdd = N.node c "vdd" in
  let src = N.node c "src" in
  N.vsource c "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc vdd);
  N.vsource c "vin" ~plus:src ~minus:gnd
    ~wave:(W.pwl [| (0.1e-9, 0.0); (0.2e-9, vdd) |]);
  let prev = ref src in
  let probes = ref [ src ] in
  for i = 1 to sections do
    let n = N.node c (Printf.sprintf "n%d" i) in
    N.resistor c (Printf.sprintf "r%d" i) ~a:!prev ~b:n
      ~ohms:(1000.0 +. (37.0 *. Float.of_int i));
    N.capacitor c (Printf.sprintf "c%d" i) ~a:n ~b:gnd ~farads:2e-15;
    if i mod 4 = 0 then begin
      (* Inverter loading the ladder every 4th section. *)
      let out = N.node c (Printf.sprintf "o%d" i) in
      N.mosfet c (Printf.sprintf "mp%d" i) ~d:out ~g:n ~s:nvdd ~b:nvdd
        ~dev:(Cards.bsim_device ~polarity:Dm.Pmos ~w_nm:600.0 ~l_nm:40.0);
      N.mosfet c (Printf.sprintf "mn%d" i) ~d:out ~g:n ~s:gnd ~b:gnd
        ~dev:(Cards.bsim_device ~polarity:Dm.Nmos ~w_nm:300.0 ~l_nm:40.0);
      N.capacitor c (Printf.sprintf "co%d" i) ~a:out ~b:gnd ~farads:1e-15;
      probes := out :: !probes
    end;
    probes := n :: !probes;
    prev := n
  done;
  (c, !probes)

let rel_diff a b =
  Float.abs (a -. b) /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let test_backend_resolution () =
  let small, _ = (build_inverter (), ()) in
  let c_small, _, _ = small in
  Alcotest.(check bool) "small auto = dense" true
    (E.resolved_backend (E.compile c_small) = E.Dense);
  let big, _ = build_big_ladder ~sections:30 in
  Alcotest.(check bool) "big auto = sparse" true
    (E.resolved_backend (E.compile big) = E.Sparse);
  Alcotest.(check bool) "forced dense" true
    (E.resolved_backend (E.compile ~backend:E.Dense big) = E.Dense);
  Alcotest.(check bool) "forced sparse on small" true
    (E.resolved_backend (E.compile ~backend:E.Sparse c_small) = E.Sparse)

let test_backend_cross_check () =
  let net_d, probes = build_big_ladder ~sections:30 in
  let net_s, _ = build_big_ladder ~sections:30 in
  let ed = E.compile ~backend:E.Dense net_d in
  let es = E.compile ~backend:E.Sparse net_s in
  (* DC operating point. *)
  let opd = E.dc ed and ops = E.dc es in
  Alcotest.(check bool) "at least 40 unknowns" true
    (Array.length opd.E.x >= 40);
  List.iter
    (fun n ->
      let vd = E.voltage ed opd n and vs = E.voltage es ops n in
      if rel_diff vd vs > 1e-9 then
        Alcotest.failf "dc %g vs %g: dense/sparse disagree" vd vs)
    probes;
  (* Transient: compare the full final state. *)
  let td = E.transient ed ~tstop:2e-9 ~dt:0.02e-9 in
  let ts = E.transient es ~tstop:2e-9 ~dt:0.02e-9 in
  Alcotest.(check int) "same accepted steps" (Array.length td.E.times)
    (Array.length ts.E.times);
  let xd = td.E.states.(Array.length td.E.states - 1) in
  let xs = ts.E.states.(Array.length ts.E.states - 1) in
  Array.iteri
    (fun i vd ->
      if rel_diff vd xs.(i) > 1e-9 then
        Alcotest.failf "tran unknown %d: %g vs %g" i vd xs.(i))
    xd;
  (* The two backends see the same assembled matrix: linearize at the
     operating point and compare G entrywise. *)
  let gd, _ = E.linearize ed opd in
  let gs, _ = E.linearize es ops in
  let n = Vstat_linalg.Matrix.rows gd in
  for r = 0 to n - 1 do
    for cidx = 0 to n - 1 do
      let a = Vstat_linalg.Matrix.get gd r cidx
      and b = Vstat_linalg.Matrix.get gs r cidx in
      if rel_diff a b > 1e-9 then
        Alcotest.failf "G(%d,%d): %g vs %g" r cidx a b
    done
  done

let test_sparse_singular_diag_payload () =
  (* The floating-node circuit with the gmin floor off is numerically
     singular; the sparse backend must classify it identically to the
     dense one and surface the failing pivot in the message. *)
  let c = N.create () in
  let gnd = N.ground c in
  let n1 = N.node c "n1" in
  let float_n = N.node c "float" in
  N.vsource c "v" ~plus:n1 ~minus:gnd ~wave:(W.Dc 1.0);
  N.capacitor c "c" ~a:n1 ~b:float_n ~farads:1e-15;
  let eng = E.compile ~backend:E.Sparse c in
  let options = { E.default_options with E.gmin_floor = 0.0 } in
  match E.with_options options (fun () -> E.dc eng) with
  | _ -> Alcotest.fail "expected Solver_error"
  | exception Vstat_circuit.Diag.Solver_error d ->
    Alcotest.(check bool) "typed kind" true
      (match d.kind with
      | Vstat_circuit.Diag.Singular_jacobian -> true
      | _ -> false);
    Alcotest.(check bool) "message names the pivot" true
      (let msg = d.message in
       let sub = "singular pivot" in
       let rec scan i =
         i + String.length sub <= String.length msg
         && (String.sub msg i (String.length sub) = sub || scan (i + 1))
       in
       scan 0)

let () =
  Alcotest.run "vstat_circuit"
    [
      ( "waveform",
        [
          Alcotest.test_case "dc/var" `Quick test_waveform_dc_var;
          Alcotest.test_case "pulse" `Quick test_waveform_pulse;
          Alcotest.test_case "pwl" `Quick test_waveform_pwl;
        ] );
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_resistor_divider;
          Alcotest.test_case "isource" `Quick test_current_source_into_resistor;
          Alcotest.test_case "two sources" `Quick test_two_sources_superposition;
          Alcotest.test_case "floating node" `Quick test_floating_node_gmin;
          Alcotest.test_case "inverter rails" `Quick test_inverter_rails;
          Alcotest.test_case "inverter VTC" `Quick test_inverter_vtc_monotone;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc discharge" `Quick test_rc_discharge;
          Alcotest.test_case "rc charge (trap)" `Quick test_rc_charge_trapezoidal;
          Alcotest.test_case "static hold" `Quick test_transient_conserves_dc_start;
          Alcotest.test_case "inverter switches" `Quick test_inverter_switches_in_transient;
          QCheck_alcotest.to_alcotest prop_rc_ladder_stable;
          Alcotest.test_case "integrator order" `Quick test_integrator_convergence_order;
        ] );
      ( "ac",
        [
          Alcotest.test_case "rc lowpass" `Quick test_ac_rc_lowpass;
          Alcotest.test_case "inverter gain" `Quick test_ac_inverter_gain_matches_vtc_slope;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unknown source" `Quick test_unknown_source_raises;
          Alcotest.test_case "stats counters" `Quick test_stats_counters_advance;
          Alcotest.test_case "node identity" `Quick test_node_identity;
          Alcotest.test_case "breakpoint landing" `Quick
            test_transient_lands_on_waveform_corners;
          Alcotest.test_case "per-phase counters" `Quick
            test_counters_per_phase;
          Alcotest.test_case "fd fallback" `Quick
            test_fd_fallback_matches_analytic;
          Alcotest.test_case "compile rejects missing derivs" `Quick
            test_compile_rejects_missing_derivs;
        ] );
      ( "ac-extra",
        [
          Alcotest.test_case "magnitude helpers" `Quick (fun () ->
              check_float ~eps:1e-9 "0 dB" 0.0
                (Vstat_circuit.Ac.magnitude_db Complex.one);
              check_float ~eps:1e-6 "-20 dB" (-20.0)
                (Vstat_circuit.Ac.magnitude_db { Complex.re = 0.1; im = 0.0 });
              check_float ~eps:1e-9 "phase -90" (-90.0)
                (Vstat_circuit.Ac.phase_deg { Complex.re = 0.0; im = -1.0 }));
          Alcotest.test_case "two-pole ladder corner order" `Quick (fun () ->
              (* Two cascaded RC sections: the 3 dB corner of the second
                 node sits below the first node's. *)
              let c = N.create () in
              let gnd = N.ground c in
              let src = N.node c "src" in
              let n1 = N.node c "n1" in
              let n2 = N.node c "n2" in
              N.vsource c "vin" ~plus:src ~minus:gnd ~wave:(W.Dc 0.0);
              N.resistor c "r1" ~a:src ~b:n1 ~ohms:1000.0;
              N.capacitor c "c1" ~a:n1 ~b:gnd ~farads:1e-12;
              N.resistor c "r2" ~a:n1 ~b:n2 ~ohms:1000.0;
              N.capacitor c "c2" ~a:n2 ~b:gnd ~farads:1e-12;
              let eng = E.compile c in
              let op = E.dc eng in
              let freqs = Vstat_util.Floatx.logspace 6.0 10.0 121 in
              let ac = Vstat_circuit.Ac.sweep eng ~op ~source:"vin" ~freqs_hz:freqs in
              (* The first swept frequency at which each node's magnitude
                 has fallen 3 dB below its low-frequency value. *)
              let corner n =
                let series = Vstat_circuit.Ac.node_transfer eng ac n in
                let db (_, h) = Vstat_circuit.Ac.magnitude_db h in
                let target = db series.(0) -. 3.0103 in
                match Array.find_opt (fun p -> db p <= target) series with
                | Some (f, _) -> f
                | None -> Alcotest.fail "expected a corner"
              in
              Alcotest.(check bool) "second pole corner lower" true
                (corner n2 < corner n1));
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "dc no convergence" `Quick test_dc_no_convergence;
          Alcotest.test_case "transient no convergence" `Quick test_transient_no_convergence;
          Alcotest.test_case "floating node singular" `Quick
            test_floating_node_singular;
          Alcotest.test_case "transient step floor typed" `Quick
            test_transient_step_floor_typed;
          Alcotest.test_case "work cap exceeded" `Quick test_work_cap_exceeded;
          Alcotest.test_case "escalate laws" `Quick test_escalate_laws;
          Alcotest.test_case "netlist validation" `Quick test_netlist_validation;
          Alcotest.test_case "empty pwl" `Quick test_pwl_empty_rejected;
        ] );
      ( "backend",
        [
          Alcotest.test_case "auto resolution" `Quick test_backend_resolution;
          Alcotest.test_case "dense vs sparse cross-check" `Quick
            test_backend_cross_check;
          Alcotest.test_case "singular payload" `Quick
            test_sparse_singular_diag_payload;
        ] );
      ( "measure",
        [
          Alcotest.test_case "settled value" `Quick test_settled_value;
          Alcotest.test_case "delay after input edge" `Quick
            test_propagation_delay_ignores_earlier_output_edges;
          Alcotest.test_case "delay from mid-segment input edge" `Quick
            test_propagation_delay_mid_segment_input_edge;
          Alcotest.test_case "delay discards pre-edge crossing" `Quick
            test_propagation_delay_discards_pre_edge_crossing;
          QCheck_alcotest.to_alcotest prop_ramp_pair_delay_exact;
        ] );
    ]
