(* Rare-event smoke: the determinism contract of both estimators on the
   real SRAM yield problem, at a sample count small enough for @runtest.

   Checks, all bit-exact:
   - importance sampling (pilot-aimed mixture proposal) is identical
     between jobs:1 and jobs:4;
   - statistical blockade is identical between jobs:1 and jobs:4;
   - a checkpointed IS run interrupted mid-flight by a deterministic
     deadline and resumed from the snapshot reproduces the uninterrupted
     run exactly.

   The statistical quality of the estimators (coverage of an exact tail,
   bounded weights, interval tightening) is covered by test_rare on an
   analytic problem; cross-validation against a brute-force golden at
   full sample counts runs in `vstat sram-yield` and `bench --rare`. *)

module Y = Vstat_experiments.Exp_sram_yield
module I = Vstat_rare.Importance
module B = Vstat_rare.Blockade
module C = Vstat_runtime.Checkpoint
module R = Vstat_runtime.Runtime

let bits = Int64.bits_of_float

let failures = ref 0

let check what ok =
  if ok then Printf.printf "  ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n%!" what
  end

let check_bits what a b =
  check
    (if Int64.equal (bits a) (bits b) then what
     else Printf.sprintf "%s (%h vs %h)" what a b)
    (Int64.equal (bits a) (bits b))

let check_bits_array what a b =
  let same =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a b
  in
  check what same

(* Cheap configuration: small counts.  pilot_n
   must still clear dim + 2 = 32 rows for the per-lobe fits. *)
let n = 48
let pilot_n = 36
let seed = 7

let identical_importance what (a : I.result) (b : I.result) =
  check_bits (what ^ ": p_hat") a.I.p_hat b.I.p_hat;
  check_bits (what ^ ": ci_lo") a.I.ci_lo b.I.ci_lo;
  check_bits (what ^ ": ci_hi") a.I.ci_hi b.I.ci_hi;
  check_bits (what ^ ": ess") a.I.ess b.I.ess;
  check_bits (what ^ ": sum_weight") a.I.sum_weight b.I.sum_weight;
  check_bits_array (what ^ ": metrics") a.I.metrics b.I.metrics;
  check_bits_array (what ^ ": log_weights") a.I.log_weights b.I.log_weights

(* The estimators read their worker count (Runtime.default_jobs) and run
   controls (checkpoint dir, deadline, from Checkpoint.controls) from
   process-wide settings — the same channels the CLI flags use — so the
   smoke sets them and restores the previous ones after. *)
let with_jobs jobs f =
  let saved = R.default_jobs () in
  R.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> R.set_default_jobs saved) f

let with_controls ?checkpoint ?deadline f =
  let saved = C.controls () in
  C.set_controls { saved with checkpoint; deadline };
  Fun.protect ~finally:(fun () -> C.set_controls saved) f

let () =
  let p = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:300 () in
  let is ?checkpoint ?deadline ~jobs () =
    with_controls ?checkpoint ?deadline (fun () ->
        with_jobs jobs (fun () -> Y.estimate_is ~n ~pilot_n ~seed p))
  in

  Printf.printf "rare_smoke: importance sampling jobs:1 vs jobs:4\n%!";
  let is1 = is ~jobs:1 () in
  let is4 = is ~jobs:4 () in
  identical_importance "is jobs" is1 is4;
  check "is complete" is1.I.complete;

  Printf.printf "rare_smoke: blockade jobs:1 vs jobs:4\n%!";
  let bl jobs =
    with_jobs jobs (fun () -> Y.estimate_blockade ~n ~pilot_n ~seed p)
  in
  let b1 = bl 1 in
  let b4 = bl 4 in
  check_bits "blockade: p_hat" b1.B.p_hat b4.B.p_hat;
  check_bits "blockade: ci_lo" b1.B.ci_lo b4.B.ci_lo;
  check_bits "blockade: ci_hi" b1.B.ci_hi b4.B.ci_hi;
  check_bits "blockade: cutoff" b1.B.cutoff b4.B.cutoff;
  check "blockade: n_simulated" (b1.B.n_simulated = b4.B.n_simulated);
  check_bits_array "blockade: classifier coef"
    b1.B.classifier.Vstat_rare.Classifier.coef
    b4.B.classifier.Vstat_rare.Classifier.coef;

  Printf.printf "rare_smoke: checkpointed IS interrupt + resume\n%!";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vstat_rare_smoke_%d" (Unix.getpid ()))
  in
  (* The deadline is polled once per completed sample; cutting after the
     pilot (36 samples) plus part of the main phase leaves a partial
     main-phase snapshot to resume from. *)
  let calls = ref 0 in
  let cut () =
    incr calls;
    !calls > pilot_n + 20
  in
  let partial =
    is ~checkpoint:(C.settings ~every:8 dir) ~deadline:cut ~jobs:1 ()
  in
  check "interrupted mid-main-phase" (not partial.I.complete);
  let resumed =
    is ~checkpoint:(C.settings ~every:8 ~resume:true dir) ~jobs:4 ()
  in
  check "resume completes" resumed.I.complete;
  identical_importance "resumed = uninterrupted" is1 resumed;

  if !failures > 0 then begin
    Printf.printf "rare_smoke: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  Printf.printf "rare_smoke: all checks passed\n"
