(* @chaos: fault-injection smoke for the resilience stack.

   Two circuit-level Monte Carlo benches (INV FO3 and NAND2 FO3 delay) are
   run three ways: clean, with 5 % injected raise-faults plus a 4-attempt
   retry ladder, and with the same injection but retries disabled.  The
   bench asserts the headline resilience claims: every injected failure is
   recovered by the ladder, recovered statistics match the clean run, dead
   samples are categorized as [injected_fault], and every configuration is
   bit-identical between jobs:1 and jobs:4. *)

module Rt = Vstat_runtime.Runtime
module FI = Vstat_device.Fault_inject
module D = Vstat_stats.Descriptive
module Mc = Vstat_experiments.Mc_compare

let vdd = Vstat_device.Cards.vdd_nominal
let n = 40
let failures = ref []
let check name ok = if not ok then failures := name :: !failures

(* The failure category of every failed sample, in index order. *)
let categories (r : _ Rt.run) =
  List.filter_map
    (function Ok _ -> None | Error f -> Some f.Rt.category)
    (Array.to_list r.Rt.cells)

let tech_of_rng rng =
  let base = Vstat_cells.Celltech.nominal_vs_seed ~vdd () in
  let jit w = w *. (1.0 +. (0.02 *. Vstat_util.Rng.gaussian rng)) in
  {
    base with
    Vstat_cells.Celltech.label = "chaos-jitter";
    nmos = (fun ~w_nm -> base.Vstat_cells.Celltech.nmos ~w_nm:(jit w_nm));
    pmos = (fun ~w_nm -> base.Vstat_cells.Celltech.pmos ~w_nm:(jit w_nm));
  }

let inv_measure tech =
  let s =
    Vstat_cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3
  in
  (Vstat_cells.Inverter.measure s).Vstat_cells.Inverter.tpd

let nand_measure tech =
  let nand2 = Vstat_cells.Gates.nand2 in
  let s =
    Vstat_cells.Fanout.sample nand2 tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3
  in
  (Vstat_cells.Fanout.measure nand2 s).Vstat_cells.Fanout.tpd

let inject = { FI.rate = 0.05; kind = FI.Raise; seed = 0x1d0a }

(* The retry ladder and the injection reach the sweep the way the CLI's
   --retry and --inject-fault do: through the process-wide settings. *)
let run ~label ~measure ?(retry = 1) ?inject jobs =
  let module C = Vstat_runtime.Checkpoint in
  let saved = C.controls () in
  C.set_controls { saved with retry };
  Mc.set_inject inject;
  Fun.protect
    ~finally:(fun () ->
      C.set_controls saved;
      Mc.set_inject None)
    (fun () ->
      Mc.collect_run ~jobs ~label ~n ~tech_of_rng
        ~rng:(Vstat_util.Rng.create ~seed:2026) ~measure ())

(* A run's surviving values, bit for bit. *)
let bits r = Array.map Int64.bits_of_float (Rt.values r)

let exercise name measure =
  let clean1 = run ~label:(name ^ "/clean") ~measure 1 in
  let clean4 = run ~label:(name ^ "/clean") ~measure 4 in
  check (name ^ ": clean all ok") (Rt.failed_count clean1 = 0);
  check (name ^ ": clean jobs-invariant")
    (bits clean1 = bits clean4);
  (* 5 % raise-fault injection, 4-attempt deterministic retry ladder. *)
  let retry = 4 in
  let r1 = run ~label:(name ^ "/chaos") ~measure ~retry ~inject 1 in
  let r4 = run ~label:(name ^ "/chaos") ~measure ~retry ~inject 4 in
  check (name ^ ": chaos values jobs-invariant")
    (bits r1 = bits r4);
  check (name ^ ": chaos attempts jobs-invariant")
    (r1.Rt.attempts = r4.Rt.attempts);
  check (name ^ ": injection actually fired")
    (r1.Rt.stats.Rt.retried_samples > 0);
  check (name ^ ": every injected failure recovered")
    (Rt.failed_count r1 = 0
    && r1.Rt.stats.Rt.recovered_samples = r1.Rt.stats.Rt.retried_samples);
  let cv = Rt.values clean1 and rv = Rt.values r1 in
  let rel a b = Float.abs (a -. b) /. Float.max (Float.abs b) 1e-30 in
  let mean_drift = rel (D.mean rv) (D.mean cv) in
  let sigma_drift = rel (D.std rv) (D.std cv) in
  check (name ^ ": recovered mean within 0.1%") (mean_drift < 1e-3);
  check (name ^ ": recovered sigma within 0.1%") (sigma_drift < 1e-3);
  (* Same injection with retries disabled: dead samples must land in the
     typed injected_fault census, and still be jobs-invariant. *)
  let d1 = run ~label:(name ^ "/norecover") ~measure ~retry:1 ~inject 1 in
  let d4 = run ~label:(name ^ "/norecover") ~measure ~retry:1 ~inject 4 in
  check (name ^ ": no-retry jobs-invariant")
    (bits d1 = bits d4
    && categories d1 = categories d4);
  check (name ^ ": failures categorized as injected_fault")
    (let cs = categories d1 in
     cs <> [] && List.for_all (String.equal "injected_fault") cs);
  Printf.printf
    "chaos %-5s: n=%d injected=%d recovered=%d mean-drift=%.1e sigma-drift=%.1e\n"
    name n (Rt.failed_count d1) r1.Rt.stats.Rt.recovered_samples mean_drift
    sigma_drift

let () =
  exercise "inv" inv_measure;
  exercise "nand2" nand_measure;
  match !failures with
  | [] ->
    print_endline
      "chaos: injected faults recovered deterministically (jobs 1 == jobs 4)"
  | msgs ->
    List.iter (fun m -> prerr_endline ("chaos FAILED: " ^ m)) (List.rev msgs);
    exit 1
