(* Tests for the compact models: VS, Bsim4lite, the device wrapper, cards
   and electrical metrics. *)

module Dm = Vstat_device.Device_model
module Vs = Vstat_device.Vs_model
module B = Vstat_device.Bsim4lite
module Cards = Vstat_device.Cards
module Metrics = Vstat_device.Metrics

let vdd = Cards.vdd_nominal

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let nmos_vs = Cards.vs_seed_device ~polarity:Dm.Nmos ~w_nm:600.0 ~l_nm:40.0
let pmos_vs = Cards.vs_seed_device ~polarity:Dm.Pmos ~w_nm:600.0 ~l_nm:40.0
let nmos_b = Cards.bsim_device ~polarity:Dm.Nmos ~w_nm:600.0 ~l_nm:40.0
let pmos_b = Cards.bsim_device ~polarity:Dm.Pmos ~w_nm:600.0 ~l_nm:40.0

let all_devices =
  [ ("vs-n", nmos_vs); ("vs-p", pmos_vs); ("bsim-n", nmos_b); ("bsim-p", pmos_b) ]

(* --- generic device-model laws --- *)

let test_zero_vds_zero_current () =
  List.iter
    (fun (name, d) ->
      let id = Dm.ids d ~vg:vdd ~vd:0.3 ~vs:0.3 ~vb:0.0 in
      check_float ~eps:1e-15 (name ^ ": id(vds=0)") 0.0 id)
    all_devices

let test_source_drain_antisymmetry () =
  (* Swapping drain and source must negate the current. *)
  List.iter
    (fun (name, d) ->
      let i1 = Dm.ids d ~vg:0.6 ~vd:0.5 ~vs:0.1 ~vb:0.0 in
      let i2 = Dm.ids d ~vg:0.6 ~vd:0.1 ~vs:0.5 ~vb:0.0 in
      Alcotest.(check bool)
        (name ^ ": antisymmetric")
        true
        (Vstat_util.Floatx.close ~rtol:1e-9 i1 (-.i2)))
    all_devices

let test_nmos_current_sign () =
  let id = Dm.ids nmos_vs ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "nmos id > 0" true (id > 0.0)

let test_pmos_current_sign () =
  (* PMOS on: source at vdd, gate low: conventional current flows from
     source to drain, i.e. *out* of the drain terminal -> negative id. *)
  let id = Dm.ids pmos_vs ~vg:0.0 ~vd:0.0 ~vs:vdd ~vb:vdd in
  Alcotest.(check bool) "pmos id < 0" true (id < 0.0)

let test_monotone_in_vgs () =
  List.iter
    (fun (name, d) ->
      let prev = ref (-1.0) in
      Array.iter
        (fun vg ->
          let id =
            match d.Dm.polarity with
            | Dm.Nmos -> Dm.ids d ~vg ~vd:vdd ~vs:0.0 ~vb:0.0
            | Dm.Pmos ->
              Float.abs (Dm.ids d ~vg:(vdd -. vg) ~vd:0.0 ~vs:vdd ~vb:vdd)
          in
          if id <= !prev then
            Alcotest.fail (name ^ ": current not monotone in vgs");
          prev := id)
        (Vstat_util.Floatx.linspace 0.0 vdd 19))
    all_devices

let test_monotone_in_vds () =
  List.iter
    (fun (name, d) ->
      let prev = ref (-1.0) in
      Array.iter
        (fun vd ->
          let id =
            match d.Dm.polarity with
            | Dm.Nmos -> Dm.ids d ~vg:vdd ~vd ~vs:0.0 ~vb:0.0
            | Dm.Pmos ->
              Float.abs (Dm.ids d ~vg:0.0 ~vd:(vdd -. vd) ~vs:vdd ~vb:vdd)
          in
          if id < !prev -. 1e-12 then
            Alcotest.fail (name ^ ": output curve non-monotone");
          prev := id)
        (Vstat_util.Floatx.linspace 0.0 vdd 19))
    all_devices

let test_charge_conservation () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun (vg, vd, vs) ->
          let st = d.Dm.eval ~vg ~vd ~vs ~vb:0.0 in
          let total = st.qg +. st.qd +. st.qs +. st.qb in
          check_float ~eps:1e-22 (name ^ ": charge neutral") 0.0 total)
        [ (0.0, vdd, 0.0); (vdd, vdd, 0.0); (0.5, 0.2, 0.1); (vdd, 0.0, 0.0) ])
    all_devices

let test_gm_positive_in_strong_inversion () =
  List.iter
    (fun (name, d) ->
      let gm =
        match d.Dm.polarity with
        | Dm.Nmos -> Dm.gm d ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0
        | Dm.Pmos -> Dm.gm d ~vg:0.0 ~vd:0.0 ~vs:vdd ~vb:vdd
      in
      (* For PMOS, dId/dVg is positive too (less negative current as the
         gate rises), so both polarities give gm > 0 at these corners. *)
      Alcotest.(check bool) (name ^ ": gm sign") true (Float.abs gm > 1e-6))
    all_devices

let test_cgg_positive_and_scales_with_width () =
  let narrow = Cards.vs_seed_device ~polarity:Dm.Nmos ~w_nm:300.0 ~l_nm:40.0 in
  let c_wide = Metrics.cgg nmos_vs ~vdd in
  let c_narrow = Metrics.cgg narrow ~vdd in
  Alcotest.(check bool) "positive" true (c_narrow > 0.0);
  check_float ~eps:0.02 "cgg ratio ~ width ratio" 2.0 (c_wide /. c_narrow)

let test_body_effect_reduces_current () =
  (* Reverse body bias (vb < vs for NMOS) raises VT and cuts current. *)
  List.iter
    (fun (name, d) ->
      match d.Dm.polarity with
      | Dm.Pmos -> ()
      | Dm.Nmos ->
        let i0 = Dm.ids d ~vg:0.5 ~vd:vdd ~vs:0.0 ~vb:0.0 in
        let irb = Dm.ids d ~vg:0.5 ~vd:vdd ~vs:0.0 ~vb:(-0.5) in
        Alcotest.(check bool) (name ^ ": RBB cuts current") true (irb < i0))
    all_devices

(* --- VS model specifics --- *)

let test_vs_dibl_raises_current () =
  let p = Cards.vs_seed_nmos ~w_nm:600.0 ~l_nm:40.0 in
  let strong = { p with Vs.dibl = { p.dibl with delta0 = 0.15 } } in
  let weak = { p with Vs.dibl = { p.dibl with delta0 = 0.01 } } in
  let id delta_params =
    let d = Vs.device ~polarity:Dm.Nmos delta_params in
    Dm.ids d ~vg:0.45 ~vd:vdd ~vs:0.0 ~vb:0.0
  in
  Alcotest.(check bool) "more DIBL, more current" true (id strong > id weak)

let test_vs_delta_of_length () =
  let d = { Vs.delta0 = 0.1; l_nominal = 40e-9; l_scale = 25e-9 } in
  check_float ~eps:1e-12 "nominal" 0.1 (Vs.delta_of_length d 40e-9);
  Alcotest.(check bool) "short channel raises DIBL" true
    (Vs.delta_of_length d 35e-9 > 0.1);
  Alcotest.(check bool) "long channel lowers DIBL" true
    (Vs.delta_of_length d 80e-9 < 0.03);
  Alcotest.(check bool) "clamped above" true (Vs.delta_of_length d 1e-9 <= 0.4)

let test_vs_subthreshold_slope () =
  (* In subthreshold, d(log10 Id)/dVg ~ 1/(n0 phit ln 10). *)
  let p = Cards.vs_seed_nmos ~w_nm:600.0 ~l_nm:40.0 in
  let d = Vs.device ~polarity:Dm.Nmos p in
  let id vg = Dm.ids d ~vg ~vd:vdd ~vs:0.0 ~vb:0.0 in
  let slope = (log10 (id 0.12) -. log10 (id 0.08)) /. 0.04 in
  let ideal = 1.0 /. (p.n0 *. p.phit *. log 10.0) in
  (* The Ff inversion-transition function softens the slope below the ideal
     1/(n phit ln 10) until vgs is several alpha*phit below VT. *)
  Alcotest.(check bool) "slope within (0.7, 1.05) of ideal" true
    (slope > 0.7 *. ideal && slope < 1.05 *. ideal)

let test_vs_saturation_flattens () =
  (* Fsat -> 1: current at vds = vdd should exceed vds = vdsat/2 but by far
     less than proportionally. *)
  let d = nmos_vs in
  let i_half = Dm.ids d ~vg:vdd ~vd:0.1 ~vs:0.0 ~vb:0.0 in
  let i_full = Dm.ids d ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "saturates" true (i_full < 3.0 *. i_half)

(* --- Bsim4lite specifics --- *)

(* The threshold shows through the subthreshold current: a term that lowers
   vth raises the current against the same card with that term zeroed. *)
let test_bsim_vth_rolloff_and_dibl () =
  let p = Cards.bsim_nmos ~w_nm:600.0 ~l_nm:40.0 in
  let id p ~vd = Dm.ids (B.device ~polarity:Dm.Nmos p) ~vg:0.1 ~vd ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "roll-off lowers short-channel vth" true
    (id p ~vd:0.05 > id { p with B.dvt0 = 0.0 } ~vd:0.05);
  Alcotest.(check bool) "DIBL lowers vth further" true
    (id p ~vd:vdd > id { p with B.eta0 = 0.0 } ~vd:vdd)

let test_bsim_geometry_offsets () =
  let p = { (Cards.bsim_nmos ~w_nm:600.0 ~l_nm:40.0) with B.dl = 5e-9; dw = 10e-9 } in
  let d = B.device ~polarity:Dm.Nmos p in
  check_float ~eps:1e-15 "leff" 35e-9 d.Dm.length;
  check_float ~eps:1e-15 "weff" 590e-9 d.Dm.width

(* --- Metrics --- *)

let test_metrics_ordering () =
  List.iter
    (fun (name, d) ->
      let on = Metrics.idsat d ~vdd in
      let off = Metrics.ioff d ~vdd in
      Alcotest.(check bool) (name ^ ": ion >> ioff") true (on > 1e3 *. off))
    all_devices

let test_metrics_polarity_symmetric_magnitudes () =
  (* N and P on-currents are both positive magnitudes. *)
  Alcotest.(check bool) "N idsat > 0" true (Metrics.idsat nmos_b ~vdd > 0.0);
  Alcotest.(check bool) "P idsat > 0" true (Metrics.idsat pmos_b ~vdd > 0.0);
  Alcotest.(check bool) "N stronger than P" true
    (Metrics.idsat nmos_b ~vdd > Metrics.idsat pmos_b ~vdd)

let test_metrics_log10_ioff_consistent () =
  let v = Metrics.log10_ioff nmos_b ~vdd in
  check_float ~eps:1e-9 "log10 of ioff"
    (log10 (Metrics.ioff nmos_b ~vdd))
    v

let test_curve_shapes () =
  let curve =
    Metrics.id_vd_curve nmos_b ~vgs:vdd
      ~vds_points:(Vstat_util.Floatx.linspace 0.0 vdd 11)
  in
  Alcotest.(check int) "points" 11 (Array.length curve);
  check_float ~eps:1e-15 "starts at 0" 0.0 (snd curve.(0))

(* --- Cards --- *)

let test_unit_conversions () =
  check_float ~eps:1e-18 "nm" 40e-9 (Cards.nm 40.0);
  check_float ~eps:1e-12 "uF/cm2" 0.017 (Cards.uf_per_cm2 1.7);
  check_float ~eps:1e-12 "cm2/Vs" 0.025 (Cards.cm2_per_vs 250.0)

let test_cards_current_density_sane () =
  (* On-current per micron should be hundreds of uA for a 40 nm node. *)
  let per_um = Metrics.idsat nmos_b ~vdd /. 0.6 *. 1e6 in
  Alcotest.(check bool) "0.2mA/um < Ion < 2mA/um" true
    (per_um > 2e-4 *. 1e6 /. 1e3 && per_um < 2e-3 *. 1e6)

(* --- qcheck: outputs stay finite over the full bias box --- *)

let bias_gen =
  QCheck.Gen.(
    let v = float_range (-1.2) 1.2 in
    quad v v v v)

let prop_finite_everywhere =
  QCheck.Test.make ~name:"device outputs finite over bias box" ~count:500
    (QCheck.make bias_gen)
    (fun (vg, vd, vs, vb) ->
      List.for_all
        (fun (_, d) ->
          let st = d.Dm.eval ~vg ~vd ~vs ~vb in
          Float.is_finite st.id && Float.is_finite st.qg
          && Float.is_finite st.qd && Float.is_finite st.qs)
        all_devices)

let prop_width_scaling =
  QCheck.Test.make ~name:"current scales linearly with width" ~count:50
    QCheck.(float_range 100.0 2000.0)
    (fun w_nm ->
      let d1 = Cards.vs_seed_device ~polarity:Dm.Nmos ~w_nm ~l_nm:40.0 in
      let d2 =
        Cards.vs_seed_device ~polarity:Dm.Nmos ~w_nm:(2.0 *. w_nm) ~l_nm:40.0
      in
      let i1 = Metrics.idsat d1 ~vdd and i2 = Metrics.idsat d2 ~vdd in
      Float.abs ((i2 /. i1) -. 2.0) < 1e-6)

(* --- analytic derivative path --- *)

(* Bias grid exercising subthreshold, near-threshold, saturation, triode,
   body bias and the source/drain-swapped quadrant (vd < vs). *)
let deriv_bias_grid =
  [
    (0.0, 0.9, 0.0, 0.0);
    (0.2, 0.9, 0.0, 0.0);
    (0.45, 0.45, 0.0, 0.0);
    (0.7, 0.05, 0.0, 0.0);
    (0.9, 0.9, 0.0, 0.0);
    (0.9, 0.9, 0.0, -0.3);
    (0.6, 0.3, 0.1, 0.0);
    (0.6, 0.1, 0.5, 0.0);   (* swapped: vd < vs *)
    (0.9, 0.0, 0.9, 0.3);   (* swapped, with body bias *)
  ]

(* Mirror the NMOS grid into the PMOS quadrant so both polarities see the
   same operating regions. *)
let deriv_grid_for (d : Dm.t) =
  match d.Dm.polarity with
  | Dm.Nmos -> deriv_bias_grid
  | Dm.Pmos ->
    List.map
      (fun (vg, vd, vs, vb) -> (-.vg, -.vd, -.vs, -.vb))
      deriv_bias_grid

let eval_derivs_exn (d : Dm.t) =
  match d.Dm.eval_derivs with
  | Some f -> f
  | None -> Alcotest.fail "device has no analytic derivative path"

let check_bits what expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" what expected actual

(* One kernel produces both paths, so the engine sees the value path's
   bits exactly. *)
let test_derivs_values_match_eval () =
  List.iter
    (fun (name, d) ->
      let ed = eval_derivs_exn d in
      let buf = Dm.make_derivs () in
      List.iter
        (fun (vg, vd, vs, vb) ->
          let st = d.Dm.eval ~vg ~vd ~vs ~vb in
          ed ~vg ~vd ~vs ~vb buf;
          let chk what =
            check_bits (Printf.sprintf "%s %s at (%g,%g,%g,%g)" name what vg vd vs vb)
          in
          chk "id" st.Dm.id buf.Dm.v_id;
          chk "qg" st.qg buf.v_qg;
          chk "qd" st.qd buf.v_qd;
          chk "qs" st.qs buf.v_qs;
          chk "qb" st.qb buf.v_qb)
        (deriv_grid_for d))
    all_devices

(* Central finite differences of the plain value path, terminal by terminal,
   must agree with the analytic conductances and transcapacitances. *)
let test_derivs_match_central_fd () =
  let dv = 1e-5 in
  List.iter
    (fun (name, d) ->
      let ed = eval_derivs_exn d in
      let buf = Dm.make_derivs () in
      List.iter
        (fun (vg, vd, vs, vb) ->
          ed ~vg ~vd ~vs ~vb buf;
          let eval_at j delta =
            let vg = if j = 0 then vg +. delta else vg in
            let vd = if j = 1 then vd +. delta else vd in
            let vs = if j = 2 then vs +. delta else vs in
            let vb = if j = 3 then vb +. delta else vb in
            d.Dm.eval ~vg ~vd ~vs ~vb
          in
          let chk what analytic fd_ref =
            (* Central-difference truncation limits agreement to ~1e-5
               relative; absolute floors separate true zeros from noise. *)
            let atol = 1e-9 *. Float.max 1.0 (Float.abs fd_ref) in
            Alcotest.(check bool)
              (Printf.sprintf "%s %s at (%g,%g,%g,%g): %g vs fd %g" name what
                 vg vd vs vb analytic fd_ref)
              true
              (Float.abs (analytic -. fd_ref)
              <= atol
                 +. (5e-4
                    *. Float.max (Float.abs analytic) (Float.abs fd_ref)))
          in
          for j = 0 to 3 do
            let hi = eval_at j dv and lo = eval_at j (-.dv) in
            let fd a b = (a -. b) /. (2.0 *. dv) in
            chk
              (Printf.sprintf "did/dV%d" j)
              buf.Dm.did.(j)
              (fd hi.Dm.id lo.Dm.id);
            chk
              (Printf.sprintf "dqg/dV%d" j)
              buf.Dm.dq.(j) (fd hi.qg lo.qg);
            chk
              (Printf.sprintf "dqd/dV%d" j)
              buf.Dm.dq.(4 + j)
              (fd hi.qd lo.qd);
            chk
              (Printf.sprintf "dqs/dV%d" j)
              buf.Dm.dq.(8 + j)
              (fd hi.qs lo.qs);
            chk
              (Printf.sprintf "dqb/dV%d" j)
              buf.Dm.dq.(12 + j)
              (fd hi.qb lo.qb)
          done)
        (deriv_grid_for d))
    all_devices

(* Hex-float goldens of the value path ([eval] and the paper's three
   metrics at the default cards), captured before the two kernels of each
   model were merged into one.  Bit equality: Idsat, Ioff and Cgg feed
   extraction and BPV, which amplify a one-ULP change. *)
let value_goldens =
  [
    ( "vs-n", (0.0, 0.9, 0.0, 0.0),
      [| 0x1.109297842857dp-23; -0x1.756de62286feep-53; 0x1.757fe836fadf6p-53;
         -0x1.2021473e072dap-65; 0x0p+0 |] );
    ( "vs-n", (0.2, 0.05, 0.0, 0.0),
      [| 0x1.6525209264256p-20; 0x1.267e2da31a8a6p-54; -0x1.f8fe638ead7b9p-56;
         -0x1.507d297ede571p-55; 0x0p+0 |] );
    ( "vs-n", (0.3, 0.9, 0.0, 0.0),
      [| 0x1.b27e835d71da9p-15; -0x1.2f54eb63abefp-55; 0x1.caef22d104278p-54;
         -0x1.3344ad1f2e3p-54; 0x0p+0 |] );
    ( "vs-n", (0.9, 0.9, 0.0, 0.0),
      [| 0x1.3ac2c6e5922d8p-11; 0x1.d9be2b2845f13p-52; -0x1.cf314778ac1dfp-54;
         -0x1.65f1d94a1ae9bp-52; 0x0p+0 |] );
    ( "vs-n", (0.9, 0.1, 0.0, -0.3),
      [| 0x1.d0f2ed76a2954p-13; 0x1.25d7352d887b4p-51; -0x1.113d725ef3025p-52;
         -0x1.3a70f7fc1df45p-52; 0x0p+0 |] );
    ( "vs-n", (0.6, 0.1, 0.5, 0.0),
      [| -0x1.2da6baed18a2cp-13; 0x1.8eaa2bbfcd126p-53; -0x1.279c06b5c5176p-53;
         -0x1.9c3894281fecp-55; 0x0p+0 |] );
    ( "vs-n", (0.9, 0.0, 0.9, 0.3),
      [| -0x1.4e1317d703f3ep-11; 0x1.eb5af6c37cb77p-52; -0x1.70732731fbc7ep-52;
         -0x1.eb9f3e4603be3p-54; 0x0p+0 |] );
    ( "vs-n", (0.7, 0.6, 0.0, 0.8),
      [| 0x1.130fcd8039787p-11; 0x1.a9ff92a90eaf8p-52; -0x1.fa2fd718b71d9p-54;
         -0x1.2b739ce2e0e82p-52; 0x0p+0 |] );
    ( "vs-p", (0.0, 0.9, 0.0, 0.0),
      [| -0x1.6c10d458ba311p-24; 0x1.8e56744b926acp-53; -0x1.8e67a4f76ff06p-53;
         0x1.130abdd85a8f5p-65; -0x0p+0 |] );
    ( "vs-p", (0.2, 0.05, 0.0, 0.0),
      [| -0x1.35ff489590482p-21; -0x1.38d3203508b1ep-54; 0x1.0c3f89e852d38p-55;
         0x1.6566b681be906p-55; -0x0p+0 |] );
    ( "vs-p", (0.3, 0.9, 0.0, 0.0),
      [| -0x1.091c8f9dc803ep-15; 0x1.6518bce11c928p-55; -0x1.f00d5d8a9b4f1p-54;
         0x1.3d80ff1a0d05ep-54; -0x0p+0 |] );
    ( "vs-p", (0.9, 0.9, 0.0, 0.0),
      [| -0x1.98a542a81c10ep-12; -0x1.e106264b1af71p-52; 0x1.cce619298c99ap-54;
         0x1.6dcca000b7d0ap-52; -0x0p+0 |] );
    ( "vs-p", (0.9, 0.1, 0.0, -0.3),
      [| -0x1.8367989a19402p-14; -0x1.2c6b794411784p-51; 0x1.1b4445a6b6a28p-52;
         0x1.3d92ace16c4ep-52; -0x0p+0 |] );
    ( "vs-p", (0.6, 0.1, 0.5, 0.0),
      [| 0x1.48a26a308f33ap-14; -0x1.912793eceb36ap-53; 0x1.2b7212a7c70fp-53;
         0x1.96d60514909e8p-55; -0x0p+0 |] );
    ( "vs-p", (0.9, 0.0, 0.9, 0.3),
      [| 0x1.b4b841e8aef0cp-12; -0x1.f46582eb92291p-52; 0x1.793fdc05669d8p-52;
         0x1.ec969b98ae2e2p-54; -0x0p+0 |] );
    ( "vs-p", (0.7, 0.6, 0.0, 0.8),
      [| -0x1.5c47a86fa9577p-12; -0x1.b69892df550aap-52; 0x1.0603de620f124p-53;
         0x1.3396a3ae4d818p-52; -0x0p+0 |] );
    ( "bsim-n", (0.0, 0.9, 0.0, 0.0),
      [| 0x1.00189830af365p-26; -0x1.7574a38fdf83dp-53; 0x1.75829bbb43599p-53;
         -0x1.bf056c7ab7b11p-66; 0x0p+0 |] );
    ( "bsim-n", (0.2, 0.05, 0.0, 0.0),
      [| 0x1.570dd731b53b6p-22; 0x1.26ae0cff7574ep-54; -0x1.f8fac6a7952f7p-56;
         -0x1.50deb6ab2052p-55; 0x0p+0 |] );
    ( "bsim-n", (0.3, 0.9, 0.0, 0.0),
      [| 0x1.b0a424c9c8859p-16; -0x1.4773985f12f38p-56; 0x1.af31d61d5119p-54;
         -0x1.5d54f0058c5c2p-54; 0x0p+0 |] );
    ( "bsim-n", (0.9, 0.9, 0.0, 0.0),
      [| 0x1.f0810ede35838p-12; 0x1.fd4591010305fp-52; -0x1.021aa41f97c48p-53;
         -0x1.7c383ef13723bp-52; 0x0p+0 |] );
    ( "bsim-n", (0.9, 0.1, 0.0, -0.3),
      [| 0x1.b6b5a78363f3dp-13; 0x1.31f1927158e98p-51; -0x1.1c502cf5bcd0ep-52;
         -0x1.4792f7ecf5021p-52; 0x0p+0 |] );
    ( "bsim-n", (0.6, 0.1, 0.5, 0.0),
      [| -0x1.8c840c6f5e57dp-14; 0x1.c473615ce5632p-53; -0x1.4984199295f49p-53;
         -0x1.ebbd1f293dba7p-55; 0x0p+0 |] );
    ( "bsim-n", (0.9, 0.0, 0.9, 0.3),
      [| -0x1.15e0388dd0ac5p-11; 0x1.0e0e4a8a821a2p-51; -0x1.8eb4d4be4be04p-52;
         -0x1.1acf80ad70a81p-53; 0x0p+0 |] );
    ( "bsim-n", (0.7, 0.6, 0.0, 0.8),
      [| 0x1.0fe5401cf1091p-11; 0x1.051f584885d36p-51; -0x1.47323ff016f8dp-53;
         -0x1.66a59099002a6p-52; 0x0p+0 |] );
    ( "bsim-p", (0.0, 0.9, 0.0, 0.0),
      [| -0x1.0cc934a54a343p-28; 0x1.8e63ad39b824ap-53; -0x1.8e6cf0b618c97p-53;
         0x1.286f8c14991fp-66; -0x0p+0 |] );
    ( "bsim-p", (0.2, 0.05, 0.0, 0.0),
      [| -0x1.f4e1edf5898aap-25; -0x1.37e5a94f7d0d1p-54; 0x1.0b4bb2de14bf8p-55;
         0x1.647f9fc0e55aap-55; -0x0p+0 |] );
    ( "bsim-p", (0.3, 0.9, 0.0, 0.0),
      [| -0x1.deecde2046ebcp-18; 0x1.13c386d2d301p-55; -0x1.e02a691d0b274p-54;
         0x1.5648a5b3a1a6bp-54; -0x0p+0 |] );
    ( "bsim-p", (0.9, 0.9, 0.0, 0.0),
      [| -0x1.0f2704aa60ff2p-12; -0x1.fe4040ac5eec8p-52; 0x1.f285a9ce5d84cp-54;
         0x1.819ed638c78b4p-52; -0x0p+0 |] );
    ( "bsim-p", (0.9, 0.1, 0.0, -0.3),
      [| -0x1.5ccac45a90063p-14; -0x1.34409c69157dcp-51; 0x1.218a00f7a692bp-52;
         0x1.46f737da8468cp-52; -0x0p+0 |] );
    ( "bsim-p", (0.6, 0.1, 0.5, 0.0),
      [| 0x1.26eb12c009a38p-15; -0x1.b6faf3bf9ad8ep-53; 0x1.454a1eedd58e6p-53;
         0x1.c6c35347152a1p-55; -0x0p+0 |] );
    ( "bsim-p", (0.9, 0.0, 0.9, 0.3),
      [| 0x1.3a59b23e04962p-12; -0x1.10bf905fa1eb6p-51; 0x1.96ab02808c14bp-52;
         0x1.15a83c7d6f84p-53; -0x0p+0 |] );
    ( "bsim-p", (0.7, 0.6, 0.0, 0.8),
      [| -0x1.407dd92f94aadp-12; -0x1.0e5abc67acb12p-51; 0x1.52a53c9b377cap-53;
         0x1.7362da81bda4p-52; -0x0p+0 |] );
  ]

let metric_goldens =
  [
    ("vs-n", [| 0x1.3ac2c6e5922d8p-11; 0x1.109297842857dp-23; 0x1.ba44a108e8adfp-51 |]);
    ("vs-p", [| 0x1.98a542a81c10ep-12; 0x1.6c10d458ba311p-24; 0x1.c7fdc0b51eeefp-51 |]);
    ("bsim-n", [| 0x1.f0810ede35838p-12; 0x1.00189830af365p-26; 0x1.bab8ca8b9ae9fp-51 |]);
    ("bsim-p", [| 0x1.0f2704aa60ff2p-12; 0x1.0cc934a54a343p-28; 0x1.c88e8d30ec88fp-51 |]);
  ]

let test_value_goldens () =
  List.iter
    (fun (name, (vg, vd, vs, vb), want) ->
      let d = List.assoc name all_devices in
      let s = match d.Dm.polarity with Dm.Nmos -> 1.0 | Dm.Pmos -> -1.0 in
      let st =
        d.Dm.eval ~vg:(s *. vg) ~vd:(s *. vd) ~vs:(s *. vs) ~vb:(s *. vb)
      in
      Array.iteri
        (fun i got ->
          check_bits
            (Printf.sprintf "%s %s at (%g,%g,%g,%g)" name
               [| "id"; "qg"; "qd"; "qs"; "qb" |].(i) vg vd vs vb)
            want.(i) got)
        [| st.Dm.id; st.qg; st.qd; st.qs; st.qb |])
    value_goldens;
  List.iter
    (fun (name, want) ->
      let d = List.assoc name all_devices in
      check_bits (name ^ " idsat") want.(0) (Metrics.idsat d ~vdd:0.9);
      check_bits (name ^ " ioff") want.(1) (Metrics.ioff d ~vdd:0.9);
      check_bits (name ^ " cgg") want.(2) (Metrics.cgg d ~vdd:0.9))
    metric_goldens

let prop_derivs_match_fd_random =
  QCheck.Test.make
    ~name:"analytic conductances track FD on random biases" ~count:200
    QCheck.(
      quad (float_range 0.0 0.9) (float_range 0.0 0.9) (float_range 0.0 0.4)
        (float_range (-0.3) 0.2))
    (fun (vg, vd, vs, vb) ->
      let buf = Dm.make_derivs () in
      List.for_all
        (fun (_, d) ->
          let sign = match d.Dm.polarity with Dm.Nmos -> 1.0 | Dm.Pmos -> -1.0 in
          let vg = sign *. vg and vd = sign *. vd and vs = sign *. vs
          and vb = sign *. vb in
          let ed = eval_derivs_exn d in
          ed ~vg ~vd ~vs ~vb buf;
          let dv = 1e-5 in
          let gm_fd =
            (d.Dm.eval ~vg:(vg +. dv) ~vd ~vs ~vb).Dm.id
            -. (d.Dm.eval ~vg:(vg -. dv) ~vd ~vs ~vb).Dm.id
          in
          let gm_fd = gm_fd /. (2.0 *. dv) in
          let gds_fd =
            (d.Dm.eval ~vg ~vd:(vd +. dv) ~vs ~vb).Dm.id
            -. (d.Dm.eval ~vg ~vd:(vd -. dv) ~vs ~vb).Dm.id
          in
          let gds_fd = gds_fd /. (2.0 *. dv) in
          let ok a b =
            Float.abs (a -. b)
            <= 1e-9 +. (1e-3 *. Float.max (Float.abs a) (Float.abs b))
          in
          ok buf.Dm.did.(0) gm_fd && ok buf.Dm.did.(1) gds_fd)
        all_devices)

(* --- fault injection --- *)

module FI = Vstat_device.Fault_inject

let test_fault_plan_deterministic () =
  let cfg = { FI.rate = 0.3; kind = FI.Raise; seed = 99 } in
  List.iter
    (fun key ->
      Alcotest.(check bool) "same key, same plan" true
        (FI.plan cfg ~key = FI.plan cfg ~key))
    [ 0; 1; 2; 17; 1234 ];
  let none = { cfg with FI.rate = 0.0 } in
  let all = { cfg with FI.rate = 1.0 } in
  Alcotest.(check bool) "rate 0 never fires" true
    (List.for_all (fun key -> FI.plan none ~key = None) (List.init 64 Fun.id));
  Alcotest.(check bool) "rate 1 always fires" true
    (List.for_all (fun key -> FI.plan all ~key <> None) (List.init 64 Fun.id));
  let hits =
    List.length
      (List.filter (fun key -> FI.plan cfg ~key <> None) (List.init 1000 Fun.id))
  in
  Alcotest.(check bool) "hit rate near configured 30%" true
    (hits > 220 && hits < 380);
  List.iter
    (fun key ->
      match FI.plan all ~key with
      | None -> Alcotest.fail "rate 1 must fire"
      | Some p ->
        Alcotest.(check bool) "ordinal within the span of 4" true
          (p.FI.device_ordinal >= 0 && p.FI.device_ordinal < 4);
        Alcotest.(check bool) "at_eval >= 1" true (p.FI.at_eval >= 1))
    (List.init 64 Fun.id)

let test_fault_plan_validates_rate () =
  (* A typo'd probability must die at the plan call, not silently skew the
     injection statistics for a whole Monte Carlo campaign. *)
  List.iter
    (fun rate ->
      let cfg = { FI.rate; kind = FI.Raise; seed = 99 } in
      match FI.plan cfg ~key:0 with
      | _ -> Alcotest.failf "rate %g accepted" rate
      | exception Invalid_argument _ -> ())
    [ -0.1; 1.5; Float.nan; Float.infinity; neg_infinity ]

let test_fault_wrap_raise_persistent () =
  let plan = { FI.device_ordinal = 0; at_eval = 3; kind = FI.Raise } in
  let dev = FI.wrap plan nmos_vs in
  let eval () = dev.Dm.eval ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0 in
  let honest = nmos_vs.Dm.eval ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0 in
  check_float ~eps:1e-15 "eval 1 honest" honest.Dm.id (eval ()).Dm.id;
  check_float ~eps:1e-15 "eval 2 honest" honest.Dm.id (eval ()).Dm.id;
  (match eval () with
  | _ -> Alcotest.fail "expected Injected at eval 3"
  | exception FI.Injected _ -> ());
  match eval () with
  | _ -> Alcotest.fail "fault must persist after engaging"
  | exception FI.Injected _ -> ()

let test_fault_wrap_nan_inf () =
  let mk kind = FI.wrap { FI.device_ordinal = 0; at_eval = 1; kind } nmos_vs in
  let st = (mk FI.Nan_current).Dm.eval ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "current is NaN" true (Float.is_nan st.Dm.id);
  let st = (mk FI.Inf_current).Dm.eval ~vg:vdd ~vd:vdd ~vs:0.0 ~vb:0.0 in
  Alcotest.(check bool) "current is +inf" true (Float.equal st.Dm.id Float.infinity)

let test_fault_parse_spec () =
  (match FI.parse_spec "0.05" with
  | Ok cfg ->
    check_float ~eps:1e-12 "rate" 0.05 cfg.FI.rate;
    Alcotest.(check bool) "default kind is raise" true (cfg.FI.kind = FI.Raise)
  | Error m -> Alcotest.fail m);
  (match FI.parse_spec "0.1:nan" with
  | Ok cfg ->
    Alcotest.(check bool) "nan kind" true (cfg.FI.kind = FI.Nan_current)
  | Error m -> Alcotest.fail m);
  (match FI.parse_spec "0.1:bogus" with
  | Ok _ -> Alcotest.fail "bogus kind accepted"
  | Error _ -> ());
  (match FI.parse_spec "1.5" with
  | Ok _ -> Alcotest.fail "rate > 1 accepted"
  | Error _ -> ());
  match FI.parse_spec "0.25:perturb" with
  | Ok cfg ->
    Alcotest.(check string) "round-trips" "0.25:perturb"
      (FI.spec_to_string cfg)
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "vstat_device"
    [
      ( "model-laws",
        [
          Alcotest.test_case "id(vds=0)=0" `Quick test_zero_vds_zero_current;
          Alcotest.test_case "antisymmetry" `Quick test_source_drain_antisymmetry;
          Alcotest.test_case "nmos sign" `Quick test_nmos_current_sign;
          Alcotest.test_case "pmos sign" `Quick test_pmos_current_sign;
          Alcotest.test_case "monotone vgs" `Quick test_monotone_in_vgs;
          Alcotest.test_case "monotone vds" `Quick test_monotone_in_vds;
          Alcotest.test_case "charge conservation" `Quick test_charge_conservation;
          Alcotest.test_case "gm" `Quick test_gm_positive_in_strong_inversion;
          Alcotest.test_case "cgg scaling" `Quick test_cgg_positive_and_scales_with_width;
          Alcotest.test_case "body effect" `Quick test_body_effect_reduces_current;
          QCheck_alcotest.to_alcotest prop_finite_everywhere;
          QCheck_alcotest.to_alcotest prop_width_scaling;
        ] );
      ( "vs-model",
        [
          Alcotest.test_case "DIBL raises current" `Quick test_vs_dibl_raises_current;
          Alcotest.test_case "delta(L)" `Quick test_vs_delta_of_length;
          Alcotest.test_case "subthreshold slope" `Quick test_vs_subthreshold_slope;
          Alcotest.test_case "saturation" `Quick test_vs_saturation_flattens;
        ] );
      ( "bsim4lite",
        [
          Alcotest.test_case "vth roll-off/DIBL" `Quick test_bsim_vth_rolloff_and_dibl;
          Alcotest.test_case "geometry offsets" `Quick test_bsim_geometry_offsets;
        ] );
      ( "derivatives",
        [
          Alcotest.test_case "values match eval" `Quick
            test_derivs_values_match_eval;
          Alcotest.test_case "match central FD" `Quick
            test_derivs_match_central_fd;
          Alcotest.test_case "value-path goldens" `Quick test_value_goldens;
          QCheck_alcotest.to_alcotest prop_derivs_match_fd_random;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "ion >> ioff" `Quick test_metrics_ordering;
          Alcotest.test_case "polarity magnitudes" `Quick test_metrics_polarity_symmetric_magnitudes;
          Alcotest.test_case "log10 consistency" `Quick test_metrics_log10_ioff_consistent;
          Alcotest.test_case "curve shapes" `Quick test_curve_shapes;
        ] );
      ( "cards",
        [
          Alcotest.test_case "unit conversions" `Quick test_unit_conversions;
          Alcotest.test_case "current density" `Quick test_cards_current_density_sane;
        ] );
      ( "fault-inject",
        [
          Alcotest.test_case "plan deterministic" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "plan validates rate" `Quick
            test_fault_plan_validates_rate;
          Alcotest.test_case "raise persists" `Quick
            test_fault_wrap_raise_persistent;
          Alcotest.test_case "nan/inf currents" `Quick test_fault_wrap_nan_inf;
          Alcotest.test_case "parse_spec" `Quick test_fault_parse_spec;
        ] );
    ]
