(* Tests for the benchmark cells: the INV/NAND2 fanout bench, the
   pass-transistor DFF and the 6T SRAM (including the SNM geometry on
   synthetic curves). *)

module T = Vstat_cells.Celltech
module F = Vstat_cells.Fanout
module G = Vstat_cells.Gates
module Dff = Vstat_cells.Dff
module Sram = Vstat_cells.Sram6t

(* The deterministic golden technology at the synthetic 40 nm node. *)
let tech : T.t =
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let device polarity ~w_nm =
    Vstat_device.Cards.bsim_device ~polarity ~w_nm ~l_nm
  in
  {
    label = "bsim-nominal";
    vdd = Vstat_device.Cards.vdd_nominal;
    l_nm;
    nmos = device Vstat_device.Device_model.Nmos;
    pmos = device Vstat_device.Device_model.Pmos;
  }

let tech_vs = T.nominal_vs_seed ()

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* One deterministic fanout-bench measurement. *)
let measure gate tech ~wp_nm ~wn_nm ~fanout =
  F.measure gate (F.sample gate tech ~wp_nm ~wn_nm ~fanout)

(* --- Inverter --- *)

let test_inverter_delay_positive () =
  let r = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  Alcotest.(check bool) "tphl > 0" true (r.tphl > 0.0);
  Alcotest.(check bool) "tplh > 0" true (r.tplh > 0.0);
  check_float ~eps:1e-15 "tpd is the mean" (0.5 *. (r.tphl +. r.tplh)) r.tpd;
  Alcotest.(check bool) "delay in ps range" true (r.tpd > 1e-12 && r.tpd < 100e-12)

let test_inverter_fanout_slows () =
  let r1 = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:1 in
  let r6 = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:6 in
  Alcotest.(check bool) "more fanout, more delay" true (r6.tpd > 1.3 *. r1.tpd)

let test_inverter_leakage_positive () =
  let r = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  Alcotest.(check bool) "leakage window" true
    (r.leakage > 1e-12 && r.leakage < 1e-5)

let test_inverter_lower_vdd_slower () =
  let slow =
    measure G.inverter { tech with T.vdd = 0.6 } ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3
  in
  let fast = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  Alcotest.(check bool) "vdd scaling" true (slow.tpd > 1.5 *. fast.tpd)

let test_inverter_deterministic_on_nominal_tech () =
  let a = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  let b = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  check_float ~eps:1e-18 "reproducible" a.tpd b.tpd

let test_inverter_vs_close_to_bsim () =
  (* Extraction is tested elsewhere; even the seed card should be within a
     factor of two. *)
  let a = measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  let b = measure G.inverter tech_vs ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  Alcotest.(check bool) "same order" true
    (b.tpd > 0.5 *. a.tpd && b.tpd < 2.0 *. a.tpd)

let test_inverter_bad_fanout () =
  match F.sample G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" "Fanout.sample: fanout >= 1" msg

(* --- NAND2 --- *)

let test_nand2_slower_than_inverter () =
  let inv = measure G.inverter tech ~wp_nm:300.0 ~wn_nm:300.0 ~fanout:3 in
  let nand = measure G.nand2 tech ~wp_nm:300.0 ~wn_nm:300.0 ~fanout:3 in
  Alcotest.(check bool) "stacked nmos is slower" true (nand.tpd > inv.tpd)

let test_nand2_vdd_scaling_monotone () =
  let delays =
    List.map
      (fun v ->
        (measure G.nand2 { tech with T.vdd = v } ~wp_nm:300.0 ~wn_nm:300.0
           ~fanout:3)
          .tpd)
      [ 0.9; 0.7; 0.55 ]
  in
  match delays with
  | [ d9; d7; d55 ] ->
    Alcotest.(check bool) "monotone slowdown" true (d9 < d7 && d7 < d55)
  | _ -> assert false

(* --- Fanout bench goldens ---

   Hex-float bit patterns of every FO3 result field.  Any change to the
   device draw order, the netlist's node or element order, the stimulus
   or the measurement moves these bits; the stochastic cases pin the
   Monte Carlo draw order of each gate's devices. *)

let fo3 =
  [
    ("inv", measure G.inverter ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3);
    ("nand2", measure G.nand2 ~wp_nm:300.0 ~wn_nm:300.0 ~fanout:3);
  ]

let check_golden name (r : F.result) (tphl, tplh, tpd, leakage) =
  List.iter
    (fun (field, expected, actual) ->
      Alcotest.(check string)
        (name ^ " " ^ field)
        (Printf.sprintf "%h" expected)
        (Printf.sprintf "%h" actual))
    [
      ("tphl", tphl, r.tphl);
      ("tplh", tplh, r.tplh);
      ("tpd", tpd, r.tpd);
      ("leakage", leakage, r.leakage);
    ]

(* (gate, (tphl, tplh, tpd, leakage)) per technology and supply. *)
let nominal_goldens =
  [
    ( (tech, 0.9),
      [
        ( "inv",
          ( 0x1.4a5c02abf0f3p-37, 0x1.5998220f4fe44p-37,
            0x1.51fa125da06bap-37, 0x1.21bf501936086p-25 ) );
        ( "nand2",
          ( 0x1.6c091cffcc4ep-37, 0x1.c8d27295946ap-37,
            0x1.9a6dc7cab05cp-37, 0x1.21b5ff7b8f03ep-25 ) );
      ] );
    ( (tech, 0.55),
      [
        ( "inv",
          ( 0x1.41fc0a5712b8p-36, 0x1.965133cbe382p-36,
            0x1.6c269f117b1dp-36, 0x1.a34aa32034367p-27 ) );
        ( "nand2",
          ( 0x1.7c7f432c0f7p-36, 0x1.fff3234ddf8ap-36,
            0x1.be39333cf77dp-36, 0x1.a33f992e306d4p-27 ) );
      ] );
    ( (tech_vs, 0.9),
      [
        ( "inv",
          ( 0x1.03f6811ab1dcp-37, 0x1.cc1af8ebc3f7p-38,
            0x1.ea03fd9093d78p-38, 0x1.6c03ef877087bp-22 ) );
        ( "nand2",
          ( 0x1.253a01aa2f67p-37, 0x1.2f40aa1a2d53p-37,
            0x1.2a3d55e22e5dp-37, 0x1.6be263d8fbc83p-22 ) );
      ] );
    ( (tech_vs, 0.55),
      [
        ( "inv",
          ( 0x1.118034618f08p-36, 0x1.0e85365a08efp-36,
            0x1.1002b55dcbfb8p-36, 0x1.1dc3f4a132cdcp-23 ) );
        ( "nand2",
          ( 0x1.5ebbb4fe751p-36, 0x1.60a15be59952p-36,
            0x1.5fae88720731p-36, 0x1.1da1c62c623b3p-23 ) );
      ] );
  ]

let test_fanout_nominal_goldens () =
  List.iter
    (fun ((base, vdd), cases) ->
      let tech = { base with T.vdd = vdd } in
      List.iter
        (fun (gate, golden) ->
          check_golden
            (Printf.sprintf "%s %s %.2fV" gate tech.T.label vdd)
            (List.assoc gate fo3 tech) golden)
        cases)
    nominal_goldens

(* One statistical-VS draw per gate, each from a fresh seed-19 stream. *)
let stochastic_goldens =
  [
    ( "inv",
      ( 0x1.46027b1191abp-37, 0x1.7301eaf4ef49p-37,
        0x1.5c823303407ap-37, 0x1.a9996740a6adep-25 ) );
    ( "nand2",
      ( 0x1.4ec02add3478p-37, 0x1.db9a61e52f24cp-37,
        0x1.952d466131ce6p-37, 0x1.a6a3092061e01p-25 ) );
  ]

let test_fanout_stochastic_goldens () =
  let p = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:300 () in
  List.iter
    (fun (gate, golden) ->
      let rng = Vstat_util.Rng.create ~seed:19 in
      let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd:0.9 in
      check_golden (gate ^ " stochastic") (List.assoc gate fo3 tech) golden)
    stochastic_goldens

(* The leakage comes off the transient's t = 0 operating point, which must
   be the bits of a DC solve of the same bench: the netlist below is
   [Fanout]'s, node for node and element for element, with the input pulse
   at its t = 0 value. *)
let test_fanout_leakage_is_dc () =
  let module N = Vstat_circuit.Netlist in
  let module E = Vstat_circuit.Engine in
  let module W = Vstat_circuit.Waveform in
  let s = F.sample G.inverter tech_vs ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  let na = N.node net "a" in
  let ny = N.node net "y" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc s.vdd);
  N.vsource net "vin" ~plus:nin ~minus:gnd ~wave:(W.Dc 0.0);
  let add name devices input output =
    G.inverter.add net ~name ~devices ~input ~output ~vdd_node:nvdd ~gnd
  in
  add "xdrv" s.driver nin na;
  add "xdut" s.dut na ny;
  Array.iteri
    (fun i d ->
      let out = N.node net (Printf.sprintf "l%d" i) in
      add (Printf.sprintf "xload%d" i) d ny out)
    s.loads;
  let eng = E.compile net in
  let dc = Float.abs (E.source_current eng (E.dc eng) "vvdd") in
  Alcotest.(check string) "leakage bits" (Printf.sprintf "%h" dc)
    (Printf.sprintf "%h" (F.measure G.inverter s).leakage)

(* --- The engine's kept evaluation ---

   A technology whose devices record their model calls: the number of
   calls, and how many were made at the bit-identical four voltages of the
   same device's previous call (the engine keeps the outputs of a model
   call and never repeats one).  Recording does not touch a value, so every
   result must keep its golden bits. *)
let recording (base : T.t) =
  let calls = ref 0 and repeats = ref 0 in
  let wrap (dev : Vstat_device.Device_model.t) =
    let ed = Option.get dev.eval_derivs in
    let last = Array.make 4 Float.nan in
    let record i v =
      let same =
        Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float last.(i))
      in
      last.(i) <- v;
      same
    in
    let eval_derivs ~vg ~vd ~vs ~vb buf =
      incr calls;
      let sg = record 0 vg and sd = record 1 vd and ss = record 2 vs in
      if record 3 vb && sg && sd && ss then incr repeats;
      ed ~vg ~vd ~vs ~vb buf
    in
    { dev with eval_derivs = Some eval_derivs }
  in
  ( {
      base with
      T.nmos = (fun ~w_nm -> wrap (base.nmos ~w_nm));
      pmos = (fun ~w_nm -> wrap (base.pmos ~w_nm));
    },
    calls,
    repeats )

let test_kept_evaluation_transient () =
  let tech, calls, repeats = recording tech_vs in
  let _, cases =
    List.find
      (fun ((base, vdd), _) -> base == tech_vs && Float.equal vdd 0.9)
      nominal_goldens
  in
  check_golden "inv recorded"
    (measure G.inverter tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3)
    (List.assoc "inv" cases);
  Alcotest.(check bool) "models called" true (!calls > 0);
  Alcotest.(check int) "calls repeating the previous voltages" 0 !repeats

let test_kept_evaluation_dc_sweep () =
  let tech, calls, repeats = recording tech_vs in
  let curves tech =
    Sram.butterfly ~points:41 (Sram.sample tech) ~mode:Sram.Read
  in
  let bits c =
    Array.to_list c
    |> List.concat_map (fun (a, b) ->
           [ Printf.sprintf "%h" a; Printf.sprintf "%h" b ])
  in
  let plain = curves tech_vs and recorded = curves tech in
  Alcotest.(check (list string)) "curve1 bits" (bits plain.curve1)
    (bits recorded.curve1);
  Alcotest.(check (list string)) "curve2 bits" (bits plain.curve2)
    (bits recorded.curve2);
  Alcotest.(check bool) "models called" true (!calls > 0);
  Alcotest.(check int) "calls repeating the previous voltages" 0 !repeats

(* --- DFF --- *)

let test_dff_setup_positive_and_sane () =
  let s = Dff.sample tech in
  let tsu = Dff.setup_time s in
  Alcotest.(check bool) "setup in (0, 150ps)" true (tsu > 0.0 && tsu < 150e-12)

(* --- SRAM --- *)

let test_sram_vtc_monotone () =
  let cell = Sram.sample tech in
  List.iter
    (fun mode ->
      let curve = (Sram.butterfly ~points:41 cell ~mode).curve1 in
      for i = 0 to Array.length curve - 2 do
        if snd curve.(i + 1) > snd curve.(i) +. 1e-6 then
          Alcotest.fail "VTC must be non-increasing"
      done)
    [ Sram.Read; Sram.Hold ]

let test_sram_hold_snm_exceeds_read () =
  let cell = Sram.sample tech in
  let read = Sram.snm cell ~mode:Sram.Read in
  let hold = Sram.snm cell ~mode:Sram.Hold in
  Alcotest.(check bool) "hold > read" true (hold > read);
  Alcotest.(check bool) "read SNM plausible" true (read > 0.02 && read < 0.3);
  Alcotest.(check bool) "hold SNM plausible" true (hold > 0.15 && hold < 0.45)

let test_sram_read_disturb_visible () =
  (* In READ mode the low output level is pulled up by the access device. *)
  let cell = Sram.sample tech in
  let low_read =
    let c = (Sram.butterfly ~points:21 cell ~mode:Sram.Read).curve1 in
    snd c.(20)
  in
  let low_hold =
    let c = (Sram.butterfly ~points:21 cell ~mode:Sram.Hold).curve1 in
    snd c.(20)
  in
  Alcotest.(check bool) "read disturb" true (low_read > low_hold +. 0.02)

(* Synthetic symmetric butterfly built from two sharp sigmoids; the exact
   SNM is not closed-form, but the geometry obeys exact laws we can check:
   it is positive, bounded by the lobe size, scale-equivariant, and zero for
   coincident curves. *)
let synthetic_butterfly ~vdd ~steepness =
  let sigmoid x = vdd /. (1.0 +. exp ((x -. (vdd /. 2.0)) /. steepness)) in
  let grid = Vstat_util.Floatx.linspace 0.0 vdd 181 in
  let curve1 = Array.map (fun q -> (q, sigmoid q)) grid in
  (* curve2: q = f(qb), stored as (q, qb) points. *)
  let curve2 = Array.map (fun qb -> (sigmoid qb, qb)) grid in
  { Sram.curve1; curve2 }

let test_snm_synthetic_bounds () =
  let b = synthetic_butterfly ~vdd:0.9 ~steepness:0.02 in
  let snm = Sram.snm_of_butterfly b in
  (* A sharp symmetric butterfly approaches the ideal-inverter bound of
     vdd/2 per lobe; it must be large but cannot exceed it. *)
  Alcotest.(check bool) "snm in (0.25, 0.45)" true (snm > 0.25 && snm < 0.45)

let test_snm_scale_equivariant () =
  let b1 = synthetic_butterfly ~vdd:0.9 ~steepness:0.02 in
  let b2 = synthetic_butterfly ~vdd:0.45 ~steepness:0.01 in
  let s1 = Sram.snm_of_butterfly b1 in
  let s2 = Sram.snm_of_butterfly b2 in
  Alcotest.(check (float 0.01)) "halved geometry halves SNM" (s1 /. 2.0) s2

let test_snm_coincident_curves_zero () =
  let grid = Vstat_util.Floatx.linspace 0.0 0.9 91 in
  let line = Array.map (fun q -> (q, 0.9 -. q)) grid in
  let snm = Sram.snm_of_butterfly { Sram.curve1 = line; curve2 = line } in
  Alcotest.(check (float 0.02)) "no lobes, no margin" 0.0 snm

let test_snm_smoother_curves_lower_margin () =
  let sharp = Sram.snm_of_butterfly (synthetic_butterfly ~vdd:0.9 ~steepness:0.01) in
  let soft = Sram.snm_of_butterfly (synthetic_butterfly ~vdd:0.9 ~steepness:0.08) in
  Alcotest.(check bool) "lower gain, lower SNM" true (soft < sharp)

let test_butterfly_curves_cover_rails () =
  let cell = Sram.sample tech in
  let b = Sram.butterfly cell ~mode:Sram.Hold in
  let q_values = Array.map fst b.curve1 in
  let lo, hi = (Array.fold_left Float.min infinity q_values,
                Array.fold_left Float.max neg_infinity q_values) in
  Alcotest.(check bool) "covers rails" true (lo <= 0.01 && hi >= 0.89)

(* --- Ring oscillator --- *)

let test_ring_oscillates () =
  let s = Vstat_cells.Ring_oscillator.sample tech in
  let r = Vstat_cells.Ring_oscillator.measure s in
  Alcotest.(check bool) "GHz range" true
    (r.frequency_hz > 1e9 && r.frequency_hz < 100e9);
  Alcotest.(check (float 1e-15)) "stage delay consistency"
    (r.period_s /. 10.0) r.stage_delay_s;
  Alcotest.(check bool) "leakage positive" true (r.leakage > 0.0)

let test_ring_lower_vdd_slower () =
  let f vdd =
    let s = Vstat_cells.Ring_oscillator.sample { tech with T.vdd = vdd } in
    (Vstat_cells.Ring_oscillator.measure s).frequency_hz
  in
  Alcotest.(check bool) "0.9V faster than 0.6V" true (f 0.9 > 1.3 *. f 0.6)

(* --- Chain --- *)

let test_chain_delay_scales_with_stages () =
  let d stages =
    Vstat_cells.Chain.measure (Vstat_cells.Chain.sample ~stages tech)
  in
  let d4 = d 4 and d8 = d 8 in
  Alcotest.(check bool) "8 stages ~ 2x 4 stages" true
    (d8 > 1.6 *. d4 && d8 < 2.4 *. d4)

let test_chain_even_and_odd_parities () =
  (* Both parities must measure (the final edge polarity flips). *)
  let d3 = Vstat_cells.Chain.measure (Vstat_cells.Chain.sample ~stages:3 tech) in
  let d4 = Vstat_cells.Chain.measure (Vstat_cells.Chain.sample ~stages:4 tech) in
  Alcotest.(check bool) "both positive" true (d3 > 0.0 && d4 > d3)

let test_chain_rejects_zero_stages () =
  match Vstat_cells.Chain.sample ~stages:0 tech with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "vstat_cells"
    [
      ( "inverter",
        [
          Alcotest.test_case "delay positive" `Quick test_inverter_delay_positive;
          Alcotest.test_case "fanout slows" `Quick test_inverter_fanout_slows;
          Alcotest.test_case "leakage" `Quick test_inverter_leakage_positive;
          Alcotest.test_case "vdd scaling" `Quick test_inverter_lower_vdd_slower;
          Alcotest.test_case "deterministic" `Quick test_inverter_deterministic_on_nominal_tech;
          Alcotest.test_case "vs vs bsim order" `Quick test_inverter_vs_close_to_bsim;
          Alcotest.test_case "bad fanout" `Quick test_inverter_bad_fanout;
        ] );
      ( "nand2",
        [
          Alcotest.test_case "slower than inv" `Quick test_nand2_slower_than_inverter;
          Alcotest.test_case "vdd scaling" `Quick test_nand2_vdd_scaling_monotone;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "nominal goldens" `Quick test_fanout_nominal_goldens;
          Alcotest.test_case "stochastic goldens" `Quick
            test_fanout_stochastic_goldens;
          Alcotest.test_case "leakage is the DC solve's" `Quick
            test_fanout_leakage_is_dc;
          Alcotest.test_case "kept evaluation: transient" `Quick
            test_kept_evaluation_transient;
          Alcotest.test_case "kept evaluation: dc sweep" `Quick
            test_kept_evaluation_dc_sweep;
        ] );
      ( "dff",
        [
          Alcotest.test_case "setup sane" `Slow test_dff_setup_positive_and_sane;
        ] );
      ( "ring-oscillator",
        [
          Alcotest.test_case "oscillates" `Quick test_ring_oscillates;
          Alcotest.test_case "vdd scaling" `Quick test_ring_lower_vdd_slower;
        ] );
      ( "chain",
        [
          Alcotest.test_case "stage scaling" `Quick test_chain_delay_scales_with_stages;
          Alcotest.test_case "parities" `Quick test_chain_even_and_odd_parities;
          Alcotest.test_case "zero rejected" `Quick test_chain_rejects_zero_stages;
        ] );
      ( "sram",
        [
          Alcotest.test_case "vtc monotone" `Quick test_sram_vtc_monotone;
          Alcotest.test_case "hold > read" `Quick test_sram_hold_snm_exceeds_read;
          Alcotest.test_case "read disturb" `Quick test_sram_read_disturb_visible;
          Alcotest.test_case "synthetic SNM bounds" `Quick test_snm_synthetic_bounds;
          Alcotest.test_case "SNM scale equivariance" `Quick test_snm_scale_equivariant;
          Alcotest.test_case "SNM coincident zero" `Quick test_snm_coincident_curves_zero;
          Alcotest.test_case "SNM gain monotonicity" `Quick test_snm_smoother_curves_lower_margin;
          Alcotest.test_case "butterfly rails" `Quick test_butterfly_curves_cover_rails;
        ] );
    ]
