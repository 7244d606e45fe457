(* Unit tests for the Vstat_rare rare-event engine: weighted accumulator
   round-trips, exact likelihood ratios, classifier recovery, and the
   estimator contracts (unbiasedness against an analytic tail, bounded
   defensive-mixture weights, bit-identity across jobs counts and across
   interrupt + resume).  Everything here runs on a cheap analytic linear
   problem — the SRAM workload is exercised by test_experiments and the
   rare_smoke binary. *)

module W = Vstat_rare.Wacc
module P = Vstat_rare.Proposal
module Pb = Vstat_rare.Problem
module Cl = Vstat_rare.Classifier
module I = Vstat_rare.Importance
module B = Vstat_rare.Blockade
module C = Vstat_runtime.Checkpoint
module D = Vstat_stats.Descriptive
module Rng = Vstat_util.Rng

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let bits = Int64.bits_of_float

let check_bits what a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h vs %h" what a b

let check_bits_array what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: sample %d differs: %h vs %h" what i x b.(i))
    a

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vstat_rare_test_%d_%d" (Unix.getpid ()) !counter)

(* Analytic linear problem: metric = c . z under the standard normal, so
   p(metric < t) = Phi(t / |c|) exactly. *)
let coef = [| 0.8; -0.5; 0.3; 0.1 |]
let dim = Array.length coef
let norm = sqrt (Array.fold_left (fun acc c -> acc +. (c *. c)) 0.0 coef)
let threshold = -2.5

let dot z =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. z.(i))) coef;
  !acc

let linear_problem =
  Pb.create ~label:"lin" ~dim
    ~simulate:(fun ~attempt:_ z -> dot z)
    ~tail:Pb.Lower ~threshold

let exact_p = Vstat_util.Special.normal_cdf (threshold /. norm)

(* The Lower-tail design point: the closest point of {c.z = t} to the
   origin, where the optimal mean shift lives. *)
let design_point =
  Array.map (fun c -> c *. threshold /. (norm *. norm)) coef

let aimed_proposal =
  P.mixture ~means:[| Array.make dim 0.0; design_point |] ()

(* --- Wacc --------------------------------------------------------------- *)

let test_wacc_matches_descriptive () =
  let xs = [| 2.0; 4.0; 4.0; 5.0; 7.0; 9.0 |] in
  let ws = [| 1.0; 2.0; 0.5; 1.5; 3.0; 0.25 |] in
  let w = W.create () in
  Array.iteri (fun i x -> W.add w ~w:ws.(i) x) xs;
  check_float ~eps:1e-12 "mean" (D.weighted_mean xs ~w:ws) (W.mean w);
  check_float ~eps:1e-12 "variance"
    (D.weighted_variance xs ~w:ws)
    (W.variance w);
  check_float ~eps:1e-12 "ess" (D.effective_sample_size ws) (W.ess w);
  check_float ~eps:1e-12 "max weight" 3.0 (W.max_weight w)

(* --- Proposal ----------------------------------------------------------- *)

let test_standard_weight_is_exactly_zero () =
  let p = P.standard ~dim in
  Alcotest.(check bool) "is_standard" true (P.is_standard p);
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 50 do
    let z = P.draw p rng in
    check_bits "log weight" 0.0 (P.log_weight p z)
  done

let test_shifted_weight_analytic () =
  (* 1-D mean shift m at scale 1: log w(z) = m^2/2 - m z. *)
  let m = 1.7 in
  let p = P.mean_shifted ~mean:[| m |] () in
  List.iter
    (fun z ->
      check_float ~eps:1e-12
        (Printf.sprintf "log LR at %g" z)
        ((0.5 *. m *. m) -. (m *. z))
        (P.log_weight p [| z |]))
    [ -2.0; -0.3; 0.0; 1.1; 4.5 ]

let test_defensive_mixture_weight_bounded () =
  (* A mixture containing the nominal component bounds every weight by
     the component count. *)
  let k = Float.of_int (P.components aimed_proposal) in
  let rng = Rng.create ~seed:12 in
  for _ = 1 to 200 do
    let z = P.draw aimed_proposal rng in
    let w = exp (P.log_weight aimed_proposal z) in
    Alcotest.(check bool) "w <= K" true (w <= k +. 1e-12)
  done

let test_draw_deterministic_and_budgeted () =
  (* Same substream, same draw. *)
  let z1 = P.draw aimed_proposal (Rng.substream ~seed:5 ~index:3) in
  let z2 = P.draw aimed_proposal (Rng.substream ~seed:5 ~index:3) in
  check_bits_array "substream draw" z1 z2;
  (* A K-component mixture consumes exactly one bounded int plus dim
     gaussians — the fixed variate budget the determinism contract needs. *)
  let a = Rng.substream ~seed:6 ~index:1 in
  let b = Rng.substream ~seed:6 ~index:1 in
  ignore (P.draw aimed_proposal a);
  ignore (Rng.int b ~bound:(P.components aimed_proposal));
  for _ = 1 to dim do
    ignore (Rng.gaussian b)
  done;
  check_bits "stream position after draw" (Rng.gaussian a) (Rng.gaussian b)

let test_mixture_rejects_bad_means () =
  (match P.mixture ~means:[||] () with
  | _ -> Alcotest.fail "expected Invalid_argument (no components)"
  | exception Invalid_argument _ -> ());
  match P.mixture ~means:[| [| 0.0; 0.0 |]; [| 1.0 |] |] () with
  | _ -> Alcotest.fail "expected Invalid_argument (ragged)"
  | exception Invalid_argument _ -> ()

(* --- Problem / Classifier ----------------------------------------------- *)

let test_problem_fails_strict () =
  Alcotest.(check bool) "below fails" true
    (Pb.fails linear_problem (threshold -. 1e-9));
  Alcotest.(check bool) "at threshold safe" false
    (Pb.fails linear_problem threshold);
  Alcotest.(check bool) "nan safe" false (Pb.fails linear_problem Float.nan)

let test_classifier_recovers_linear () =
  let rng = Rng.create ~seed:13 in
  let zs =
    Array.init 25 (fun _ -> Array.init 3 (fun _ -> Rng.gaussian rng))
  in
  let metrics =
    Array.map (fun z -> 2.0 +. (3.0 *. z.(0)) -. z.(1)) zs
  in
  let c = Cl.fit ~zs ~metrics in
  check_float ~eps:1e-8 "intercept" 2.0 c.Cl.intercept;
  check_float ~eps:1e-8 "coef0" 3.0 c.Cl.coef.(0);
  check_float ~eps:1e-8 "coef1" (-1.0) c.Cl.coef.(1);
  check_float ~eps:1e-8 "coef2" 0.0 c.Cl.coef.(2);
  check_float ~eps:1e-6 "residual" 0.0 (Cl.residual_std c ~zs ~metrics);
  check_float ~eps:1e-8 "predict" 2.0 (Cl.predict c [| 0.0; 0.0; 5.0 |])

(* --- Importance --------------------------------------------------------- *)

let test_standard_estimate_covers_exact () =
  let r =
    I.estimate
      ~proposal:(P.standard ~dim)
      ~problem:linear_problem
      ~rng:(Rng.create ~seed:21)
      ~n:4000 ()
  in
  Alcotest.(check bool) "complete" true r.I.complete;
  (* Standard proposal: every weight is exactly 1. *)
  Array.iter (fun lw -> check_bits "log weight" 0.0 lw) r.I.log_weights;
  check_bits "sum weight = n" (Float.of_int r.I.n) r.I.sum_weight;
  check_float ~eps:1e-12 "ess = n" (Float.of_int r.I.n) r.I.ess;
  Alcotest.(check bool)
    (Printf.sprintf "CI [%g, %g] covers exact %g" r.I.ci_lo r.I.ci_hi exact_p)
    true
    (r.I.ci_lo <= exact_p && exact_p <= r.I.ci_hi)

let test_aimed_estimate_is_tighter () =
  let plain =
    I.estimate
      ~proposal:(P.standard ~dim)
      ~problem:linear_problem
      ~rng:(Rng.create ~seed:21)
      ~n:4000 ()
  in
  let is =
    I.estimate ~proposal:aimed_proposal ~problem:linear_problem
      ~rng:(Rng.create ~seed:22)
      ~n:1000 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "IS CI [%g, %g] covers exact %g" is.I.ci_lo is.I.ci_hi
       exact_p)
    true
    (is.I.ci_lo <= exact_p && exact_p <= is.I.ci_hi);
  Alcotest.(check bool) "weights bounded by K" true (is.I.max_weight <= 2.0);
  let width r = r.I.ci_hi -. r.I.ci_lo in
  Alcotest.(check bool) "4x fewer samples, tighter interval" true
    (width is < width plain);
  Alcotest.(check bool) "mc-equivalent speedup > 5x" true
    (I.mc_equivalent_samples is /. 1000.0 > 5.0)

let importance_result ~jobs ~checkpoint:ck ?deadline () =
  I.estimate ~jobs ?checkpoint:ck ?deadline ~proposal:aimed_proposal
    ~problem:linear_problem
    ~rng:(Rng.create ~seed:23)
    ~n:400 ()

let check_importance_identical what (a : I.result) (b : I.result) =
  check_bits (what ^ " p_hat") a.I.p_hat b.I.p_hat;
  check_bits (what ^ " ci_lo") a.I.ci_lo b.I.ci_lo;
  check_bits (what ^ " ci_hi") a.I.ci_hi b.I.ci_hi;
  check_bits (what ^ " sn_p_hat") a.I.sn_p_hat b.I.sn_p_hat;
  check_bits (what ^ " ess") a.I.ess b.I.ess;
  check_bits (what ^ " sum_weight") a.I.sum_weight b.I.sum_weight;
  check_bits (what ^ " max_weight") a.I.max_weight b.I.max_weight;
  check_bits_array (what ^ " metrics") a.I.metrics b.I.metrics;
  check_bits_array (what ^ " log_weights") a.I.log_weights b.I.log_weights

let test_importance_jobs_identity () =
  let r1 = importance_result ~jobs:1 ~checkpoint:None () in
  let r4 = importance_result ~jobs:4 ~checkpoint:None () in
  check_importance_identical "jobs1=jobs4" r1 r4

let test_importance_resume_identity () =
  let reference = importance_result ~jobs:1 ~checkpoint:None () in
  let dir = fresh_dir () in
  (* Cut the checkpointed run mid-flight with a deterministic deadline. *)
  let calls = ref 0 in
  let cut () =
    incr calls;
    !calls > 120
  in
  let partial =
    importance_result ~jobs:1
      ~checkpoint:(Some (C.settings ~every:25 dir))
      ~deadline:cut ()
  in
  Alcotest.(check bool) "interrupted" true (not partial.I.complete);
  Alcotest.(check bool) "partial" true (partial.I.n < 400 && partial.I.n > 0);
  let resumed =
    importance_result ~jobs:4
      ~checkpoint:(Some (C.settings ~every:25 ~resume:true dir))
      ()
  in
  Alcotest.(check bool) "resume completes" true resumed.I.complete;
  check_importance_identical "resumed = uninterrupted" reference resumed

(* --- Blockade ----------------------------------------------------------- *)

let blockade_result ~jobs () =
  B.estimate ~jobs ~problem:linear_problem
    ~rng:(Rng.create ~seed:31)
    ~n:3000 ()

let test_blockade_covers_exact () =
  let r = blockade_result ~jobs:1 () in
  Alcotest.(check bool) "complete" true r.B.complete;
  Alcotest.(check bool)
    (Printf.sprintf "CI [%g, %g] covers exact %g" r.B.ci_lo r.B.ci_hi exact_p)
    true
    (r.B.ci_lo <= exact_p && exact_p <= r.B.ci_hi);
  Alcotest.(check bool) "simulates a strict subset" true
    (r.B.n_simulated < r.B.n);
  Alcotest.(check bool) "simulation fraction < 0.5" true
    (B.simulation_fraction r < 0.5)

let test_blockade_jobs_identity () =
  let r1 = blockade_result ~jobs:1 () in
  let r4 = blockade_result ~jobs:4 () in
  check_bits "p_hat" r1.B.p_hat r4.B.p_hat;
  check_bits "ci_lo" r1.B.ci_lo r4.B.ci_lo;
  check_bits "ci_hi" r1.B.ci_hi r4.B.ci_hi;
  check_bits "cutoff" r1.B.cutoff r4.B.cutoff;
  check_bits "residual" r1.B.residual_std r4.B.residual_std;
  Alcotest.(check int) "n_simulated" r1.B.n_simulated r4.B.n_simulated;
  Alcotest.(check int) "n_hits" r1.B.n_hits r4.B.n_hits;
  check_bits_array "classifier coef" r1.B.classifier.Cl.coef
    r4.B.classifier.Cl.coef

let () =
  Alcotest.run "vstat_rare"
    [
      ( "wacc",
        [
          Alcotest.test_case "matches descriptive" `Quick
            test_wacc_matches_descriptive;
        ] );
      ( "proposal",
        [
          Alcotest.test_case "standard weight 0" `Quick
            test_standard_weight_is_exactly_zero;
          Alcotest.test_case "shifted LR analytic" `Quick
            test_shifted_weight_analytic;
          Alcotest.test_case "defensive bound" `Quick
            test_defensive_mixture_weight_bounded;
          Alcotest.test_case "draw deterministic" `Quick
            test_draw_deterministic_and_budgeted;
          Alcotest.test_case "bad means rejected" `Quick
            test_mixture_rejects_bad_means;
        ] );
      ( "problem",
        [
          Alcotest.test_case "fails strict" `Quick test_problem_fails_strict;
          Alcotest.test_case "classifier recovery" `Quick
            test_classifier_recovers_linear;
        ] );
      ( "importance",
        [
          Alcotest.test_case "standard covers exact" `Quick
            test_standard_estimate_covers_exact;
          Alcotest.test_case "aimed is tighter" `Quick
            test_aimed_estimate_is_tighter;
          Alcotest.test_case "jobs bit-identity" `Quick
            test_importance_jobs_identity;
          Alcotest.test_case "resume bit-identity" `Quick
            test_importance_resume_identity;
        ] );
      ( "blockade",
        [
          Alcotest.test_case "covers exact" `Quick test_blockade_covers_exact;
          Alcotest.test_case "jobs bit-identity" `Quick
            test_blockade_jobs_identity;
        ] );
    ]
