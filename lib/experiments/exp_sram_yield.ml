module Rare = Vstat_rare
module Vs = Vstat_core.Vs_statistical

let log_src =
  Logs.Src.create "vstat.exp.sram_yield" ~doc:"SRAM rare-event yield"

module Log = (val Logs.src_log log_src : Logs.LOG)

let params_per_device = 5
let devices_per_cell = 6
let dim = params_per_device * devices_per_cell

(* One device from 5 explicit standard-normal coordinates: the same
   Pelgrom sigmas and model couplings as [Vs_statistical.sample_device],
   but with the Gaussian draw replaced by [sigma * z].  Coordinate order
   matches [draw_shifts]: VT0, Leff, Weff, mu, Cinv. *)
let device_of_z (m : Vs.t) ~w_nm ~l_nm (z : float array) off =
  let s = Vstat_core.Variation.sigmas_of_alphas m.Vs.alphas ~w_nm ~l_nm in
  let shifts =
    {
      Vs.dvt0 = s.Vstat_core.Variation.s_vt0 *. z.(off);
      dl_nm = s.s_l *. z.(off + 1);
      dw_nm = s.s_w *. z.(off + 2);
      dmu = s.s_mu *. z.(off + 3);
      dcinv = s.s_cinv *. z.(off + 4);
    }
  in
  Vstat_device.Vs_model.device ~name:m.Vs.label ~polarity:m.Vs.polarity
    (Vs.apply_shifts (m.Vs.nominal ~w_nm ~l_nm) shifts)

let z_tech (p : Vstat_core.Pipeline.t) ~vdd (z : float array) =
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let cursor = ref 0 in
  let next_off () =
    let o = !cursor in
    if o + params_per_device > Array.length z then
      invalid_arg
        (Printf.sprintf
           "Exp_sram_yield.z_tech: coordinate vector of %d exhausted at \
            offset %d (5 per transistor)"
           (Array.length z) o);
    cursor := o + params_per_device;
    o
  in
  {
    Vstat_cells.Celltech.label = "vs-z-driven";
    vdd;
    l_nm;
    nmos = (fun ~w_nm -> device_of_z p.vs_nmos ~w_nm ~l_nm z (next_off ()));
    pmos = (fun ~w_nm -> device_of_z p.vs_pmos ~w_nm ~l_nm z (next_off ()));
  }

(* Butterfly sweep resolution of every SNM the estimators simulate. *)
let points = 41

let problem (p : Vstat_core.Pipeline.t) ~vdd ~threshold =
  Rare.Problem.create
    ~label:(Printf.sprintf "sram-read-snm-vdd%.2f-pts%d" vdd points)
    ~dim
    ~simulate:(fun ~attempt z ->
      let tech = z_tech p ~vdd z in
      let opts =
        Vstat_circuit.Engine.escalate ~attempt
          Vstat_circuit.Engine.default_options
      in
      Vstat_circuit.Engine.with_options opts (fun () ->
          Vstat_cells.Sram6t.snm ~points (Vstat_cells.Sram6t.sample tech)
            ~mode:Read))
    ~tail:Rare.Problem.Lower ~threshold

type t = {
  vdd : float;
  threshold : float;
  sigma_shift : float;
  plain : Rare.Importance.result;
  is : Rare.Importance.result;
  blockade : Rare.Blockade.result;
  is_agrees : bool;
  blockade_agrees : bool;
}

let intervals_overlap (lo1, hi1) (lo2, hi2) = lo1 <= hi2 && lo2 <= hi1

(* Mean-shift pilot: a small plain-MC run over explicit coordinates,
   journaled like any other run (payload = lobe1 :: lobe2 :: z), that
   aims the proposal.  A sigma-scaled-only proposal is a poor fit here:
   widening all 30 coordinates at once collapses the effective sample
   size exponentially in the dimension.  And a single response surface
   on the cell SNM is poor too — the SNM is the min of the two butterfly
   lobes, and that kink defeats a linear fit (and leaves the mirror
   lobe's failures carrying enormous likelihood ratios).  So the pilot
   records the {e per-lobe} noise margins, fits one linear response
   surface per lobe, and shifts at each lobe's design point — the
   smallest-norm coordinate vector the fit predicts exactly at the
   failure threshold, z* = w (T - c) / |w|^2.  The proposal is the
   defensive mixture of the nominal density with both lobe cones, so
   every likelihood ratio is bounded by the component count (3): no
   single sample can dominate the estimate, whatever the fits missed. *)
let pilot_proposal ~scale ~vdd ~(prob : Rare.Problem.t)
    ~(p : Vstat_core.Pipeline.t) ~rng ~n () =
  let module C = Vstat_runtime.Checkpoint in
  let std = Rare.Proposal.standard ~dim in
  let r =
    C.collect ~min_ok:(dim + 2)
      ~fingerprint:(Rare.Problem.fingerprint prob ^ "|phase:is-pilot")
      ~codec:C.float_array_codec
      ~label:(prob.Rare.Problem.label ^ "-is-pilot")
      ~rng ~n
      ~f:(fun ~attempt ~index:_ sample_rng ->
        let z = Rare.Proposal.draw std sample_rng in
        let tech = z_tech p ~vdd z in
        let opts =
          Vstat_circuit.Engine.escalate ~attempt
            Vstat_circuit.Engine.default_options
        in
        let lobe1, lobe2 =
          Vstat_circuit.Engine.with_options opts (fun () ->
              Vstat_cells.Sram6t.snm_lobes ~points
                (Vstat_cells.Sram6t.sample tech)
                ~mode:Read)
        in
        Array.append [| lobe1; lobe2 |] z)
      ()
  in
  let rows = Vstat_runtime.Runtime.values r in
  let zs = Array.map (fun row -> Array.sub row 2 dim) rows in
  let design lobe_metrics =
    let clf = Rare.Classifier.fit ~zs ~metrics:lobe_metrics in
    let norm2 =
      Array.fold_left
        (fun acc c -> acc +. (c *. c))
        0.0 clf.Rare.Classifier.coef
    in
    if norm2 > 0.0 then
      let t =
        (prob.Rare.Problem.threshold -. clf.Rare.Classifier.intercept)
        /. norm2
      in
      Some (Array.map (fun c -> c *. t) clf.Rare.Classifier.coef)
    else None
  in
  let d1 = design (Array.map (fun row -> row.(0)) rows) in
  let d2 = design (Array.map (fun row -> row.(1)) rows) in
  match (d1, d2) with
  | Some m1, Some m2 ->
    Rare.Proposal.mixture ~scale ~means:[| Array.make dim 0.0; m1; m2 |] ()
  | _ ->
    (* Degenerate fits (constant lobes) — fall back to the
       center-of-gravity shift over the min metric. *)
    let metrics = Array.map (fun row -> Float.min row.(0) row.(1)) rows in
    Rare.Proposal.from_pilot ~zs ~metrics
      ~tail:(Rare.Problem.qq_tail prob)
      ~threshold:prob.Rare.Problem.threshold ~scale ()

(* Substream-family seeds: golden on [seed], IS on [seed+1], blockade on
   [seed+2], the IS pilot on [seed+3] — all derived deterministically so
   the three estimators stay independent yet reproducible. *)

let default_vdd = 0.80
let default_threshold = 0.025
let default_is_pilot = 200

let estimate_plain ?(n = 4000) ?(seed = 61)
    ?(vdd = default_vdd) ?(threshold = default_threshold)
    (p : Vstat_core.Pipeline.t) =
  let prob = problem p ~vdd ~threshold in
  (* Its own label, so its snapshot never collides with the IS run's. *)
  let prob = { prob with Rare.Problem.label = prob.label ^ "-plain" } in
  Rare.Importance.estimate ~proposal:(Rare.Proposal.standard ~dim)
    ~problem:prob ~rng:(Vstat_util.Rng.create ~seed) ~n ()

let estimate_is ?(n = 4000) ?(seed = 61)
    ?(vdd = default_vdd) ?(threshold = default_threshold) ?(sigma_shift = 1.0)
    ?(pilot_n = default_is_pilot) (p : Vstat_core.Pipeline.t) =
  let prob = problem p ~vdd ~threshold in
  let proposal =
    pilot_proposal ~scale:sigma_shift ~vdd ~prob ~p
      ~rng:(Vstat_util.Rng.create ~seed:(seed + 3))
      ~n:pilot_n ()
  in
  Log.info (fun m -> m "IS proposal: %s" (Rare.Proposal.to_string proposal));
  Rare.Importance.estimate ~proposal ~problem:prob
    ~rng:(Vstat_util.Rng.create ~seed:(seed + 1))
    ~n ()

let estimate_blockade ?(n = 4000) ?(seed = 61)
    ?(vdd = default_vdd) ?(threshold = default_threshold) ?pilot_n
    (p : Vstat_core.Pipeline.t) =
  let prob = problem p ~vdd ~threshold in
  Rare.Blockade.estimate ?pilot_n ~problem:prob
    ~rng:(Vstat_util.Rng.create ~seed:(seed + 2))
    ~n ()

let run ?(n = 4000) ?(seed = 61) ?(vdd = default_vdd)
    ?(threshold = default_threshold) ?(sigma_shift = 1.0) ?pilot_n
    (p : Vstat_core.Pipeline.t) =
  let plain = estimate_plain ~n ~seed ~vdd ~threshold p in
  Log.info (fun m -> m "golden: %a" Rare.Importance.pp plain);
  let is =
    estimate_is ~n ~seed ~vdd ~threshold ~sigma_shift ?pilot_n p
  in
  Log.info (fun m -> m "is: %a" Rare.Importance.pp is);
  let blockade =
    estimate_blockade ~n ~seed ~vdd ~threshold ?pilot_n p
  in
  Log.info (fun m -> m "blockade: %a" Rare.Blockade.pp blockade);
  {
    vdd;
    threshold;
    sigma_shift;
    plain;
    is;
    blockade;
    is_agrees =
      intervals_overlap (plain.ci_lo, plain.ci_hi) (is.ci_lo, is.ci_hi);
    blockade_agrees =
      intervals_overlap
        (plain.ci_lo, plain.ci_hi)
        (blockade.ci_lo, blockade.ci_hi);
  }

let pp ppf t =
  Format.fprintf ppf
    "SRAM yield: P(SNM < %.0f mV) at Vdd = %.2f V, 30-dim BPV space@\n"
    (t.threshold *. 1e3) t.vdd;
  Format.fprintf ppf "  golden   %a" Rare.Importance.pp t.plain;
  Format.fprintf ppf "  IS(x%.2f) %a" t.sigma_shift Rare.Importance.pp t.is;
  Format.fprintf ppf "  blockade %a" Rare.Blockade.pp t.blockade;
  Format.fprintf ppf "  agreement vs golden: IS %s, blockade %s@\n"
    (if t.is_agrees then "OK" else "DISAGREES")
    (if t.blockade_agrees then "OK" else "DISAGREES")
