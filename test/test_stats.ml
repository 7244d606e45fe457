(* Unit and property tests for Vstat_stats. *)

module D = Vstat_stats.Descriptive
module H = Vstat_stats.Histogram
module Qq = Vstat_stats.Qq
module E = Vstat_stats.Ellipse
module C = Vstat_stats.Compare
module Rng = Vstat_util.Rng

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let gaussian_sample ~seed ~n ~mean ~sigma =
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> Rng.gaussian_scaled rng ~mean ~sigma)

(* --- Descriptive --- *)

let test_mean_var_std () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (D.mean xs);
  check_float ~eps:1e-12 "variance (unbiased)" (32.0 /. 7.0) (D.variance xs);
  check_float ~eps:1e-12 "std" (sqrt (32.0 /. 7.0)) (D.std xs)

let test_min_max () =
  let lo, hi = D.min_max [| 3.0; -1.0; 7.0; 2.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (D.quantile xs 0.5);
  check_float "q0" 1.0 (D.quantile xs 0.0);
  check_float "q1" 5.0 (D.quantile xs 1.0);
  check_float "q interp" 1.5 (D.quantile xs 0.125)

let test_quantile_unsorted () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median of unsorted" 3.0 (D.quantile xs 0.5)

let test_skewness_symmetric () =
  let xs = gaussian_sample ~seed:1 ~n:50_000 ~mean:0.0 ~sigma:1.0 in
  check_float ~eps:0.05 "gaussian skew ~ 0" 0.0 (D.skewness xs)

let test_skewness_positive_for_lognormal () =
  let rng = Rng.create ~seed:2 in
  let xs = Array.init 20_000 (fun _ -> Rng.lognormal rng ~mu:0.0 ~sigma:0.6) in
  Alcotest.(check bool) "lognormal skew > 0.5" true (D.skewness xs > 0.5)

let test_covariance_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  check_float ~eps:1e-12 "corr linear = 1" 1.0 (D.correlation xs ys);
  let ys_neg = Array.map (fun x -> -.x) xs in
  check_float ~eps:1e-12 "corr anti = -1" (-1.0) (D.correlation xs ys_neg);
  check_float ~eps:1e-12 "cov" (2.0 *. D.variance xs) (D.covariance xs ys)

let test_sigma_over_mu () =
  let xs = [| 9.0; 10.0; 11.0 |] in
  check_float ~eps:1e-12 "sigma/mu" (1.0 /. 10.0) (D.sigma_over_mu xs)

let test_empty_rejected () =
  match D.mean [||] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- weighted descriptive (importance-sampling accumulators) --- *)

let test_weighted_matches_unweighted () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let w = Array.make (Array.length xs) 3.5 in
  check_float ~eps:1e-12 "uniform weights = mean" (D.mean xs)
    (D.weighted_mean xs ~w)

let test_weighted_mean_replication () =
  (* Integer weights behave like sample replication. *)
  let xs = [| 1.0; 10.0 |] and w = [| 3.0; 1.0 |] in
  check_float ~eps:1e-12 "3:1 replication" ((3.0 +. 10.0) /. 4.0)
    (D.weighted_mean xs ~w);
  (* Scale invariance: weights are relative masses. *)
  let w10 = Array.map (fun wi -> 10.0 *. wi) w in
  check_float ~eps:1e-12 "weight scale invariant (mean)"
    (D.weighted_mean xs ~w) (D.weighted_mean xs ~w:w10)

let test_weighted_zero_weight_ignored () =
  let xs = [| 1.0; 2.0; 1000.0 |] and w = [| 1.0; 1.0; 0.0 |] in
  check_float ~eps:1e-12 "zero-weight sample invisible" 1.5
    (D.weighted_mean xs ~w)

let test_weighted_rejects_bad_weights () =
  let xs = [| 1.0; 2.0 |] in
  (match D.weighted_mean xs ~w:[| 1.0 |] with
  | _ -> Alcotest.fail "expected Invalid_argument (length mismatch)"
  | exception Invalid_argument _ -> ());
  (match D.weighted_mean xs ~w:[| 1.0; -0.5 |] with
  | _ -> Alcotest.fail "expected Invalid_argument (negative weight)"
  | exception Invalid_argument _ -> ());
  match D.weighted_mean xs ~w:[| 0.0; 0.0 |] with
  | _ -> Alcotest.fail "expected Invalid_argument (all-zero weights)"
  | exception Invalid_argument _ -> ()

let test_effective_sample_size () =
  check_float ~eps:1e-9 "uniform weights: ess = n" 4.0
    (D.effective_sample_size [| 2.0; 2.0; 2.0; 2.0 |]);
  check_float ~eps:1e-9 "one dominant weight: ess -> 1" 1.0
    (D.effective_sample_size [| 1e12; 1e-12; 1e-12 |]);
  let ess = D.effective_sample_size [| 4.0; 1.0; 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) "skewed weights: 1 < ess < n" true
    (ess > 1.0 && ess < 5.0)

(* --- Histogram --- *)

let test_kde_integrates_to_one () =
  let xs = gaussian_sample ~seed:5 ~n:2000 ~mean:0.0 ~sigma:1.0 in
  let series = H.kde ~points:201 xs in
  let integral = ref 0.0 in
  for i = 0 to Array.length series - 2 do
    let x0, y0 = series.(i) and x1, y1 = series.(i + 1) in
    integral := !integral +. (0.5 *. (y0 +. y1) *. (x1 -. x0))
  done;
  check_float ~eps:0.02 "kde integral" 1.0 !integral

let test_kde_peak_near_mean () =
  let xs = gaussian_sample ~seed:6 ~n:5000 ~mean:3.0 ~sigma:0.5 in
  let series = H.kde xs in
  let best =
    Array.fold_left
      (fun (bx, by) (x, y) -> if y > by then (x, y) else (bx, by))
      (0.0, neg_infinity) series
  in
  check_float ~eps:0.2 "peak position" 3.0 (fst best)

let test_sparkline_length () =
  let s = H.sparkline (Array.init 100 Float.of_int) in
  Alcotest.(check bool) "non-empty" true (String.length s > 0)

let test_wilson_interval () =
  (* k = 0 must still give an informative interval: lo = 0, hi > 0. *)
  let lo0, hi0 = H.wilson_interval ~k:0 100 in
  check_float ~eps:1e-12 "k=0 lower" 0.0 lo0;
  Alcotest.(check bool) "k=0 upper positive" true (hi0 > 0.0 && hi0 < 0.1);
  let lo, hi = H.wilson_interval ~k:50 100 in
  Alcotest.(check bool) "contains p-hat" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "inside [0,1]" true (lo >= 0.0 && hi <= 1.0);
  check_float ~eps:1e-5 "95% half-width" 0.09617 ((hi -. lo) /. 2.0);
  match H.wilson_interval ~k:5 4 with
  | _ -> Alcotest.fail "expected Invalid_argument (k > n)"
  | exception Invalid_argument _ -> ()

(* --- Qq --- *)

let test_qq_gaussian_is_linear () =
  let xs = gaussian_sample ~seed:7 ~n:4000 ~mean:5.0 ~sigma:2.0 in
  Alcotest.(check bool) "r2 > 0.995" true (Qq.linearity_r2 xs > 0.995)

let test_qq_lognormal_is_nonlinear () =
  let rng = Rng.create ~seed:8 in
  let xs = Array.init 4000 (fun _ -> Rng.lognormal rng ~mu:0.0 ~sigma:0.8) in
  Alcotest.(check bool) "r2 < 0.97" true (Qq.linearity_r2 xs < 0.97)

let test_qq_series_monotone () =
  let xs = gaussian_sample ~seed:9 ~n:100 ~mean:0.0 ~sigma:1.0 in
  let series = Qq.against_normal xs in
  let ok = ref true in
  for i = 0 to Array.length series - 2 do
    if snd series.(i) > snd series.(i + 1) then ok := false;
    if fst series.(i) >= fst series.(i + 1) then ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok

let test_tail_deviation_gaussian () =
  let xs = gaussian_sample ~seed:10 ~n:100_000 ~mean:0.0 ~sigma:1.0 in
  check_float ~eps:0.05 "gaussian tail dev ~ 0" 0.0 (Qq.tail_deviation xs)

(* --- Ellipse --- *)

let bivariate_sample ~seed ~n =
  let rng = Rng.create ~seed in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let u = Rng.gaussian rng and v = Rng.gaussian rng in
    xs.(i) <- (2.0 *. u) +. 1.0;
    (* correlated pair *)
    ys.(i) <- u +. (0.5 *. v) -. 3.0
  done;
  (xs, ys)

let test_ellipse_coverage () =
  let xs, ys = bivariate_sample ~seed:11 ~n:20_000 in
  List.iter
    (fun (k, expected) ->
      let e = E.of_sigma_level ~n_sigma:k xs ys in
      let cov = E.coverage e xs ys in
      check_float ~eps:0.02 (Printf.sprintf "%d-sigma coverage" k) expected cov)
    [ (1, 0.3935); (2, 0.8647); (3, 0.9889) ]

let test_ellipse_center () =
  let xs, ys = bivariate_sample ~seed:13 ~n:20_000 in
  let e = E.of_sigma_level ~n_sigma:1 xs ys in
  let cx, cy = e.center in
  check_float ~eps:0.05 "center x" 1.0 cx;
  check_float ~eps:0.05 "center y" (-3.0) cy

let test_ellipse_points_on_boundary () =
  let xs, ys = bivariate_sample ~seed:14 ~n:5000 in
  let e = E.of_sigma_level ~n_sigma:2 xs ys in
  let pts = E.points e ~n:36 in
  Alcotest.(check int) "count" 36 (Array.length pts);
  (* Boundary points must be inside (closed ellipse) but barely: shrink by
     10% -> inside, grow by 10% -> outside. *)
  let cx, cy = e.center in
  Array.iter
    (fun (x, y) ->
      (* A single point's coverage is 1 inside, 0 outside. *)
      let inside (px, py) = Float.equal (E.coverage e [| px |] [| py |]) 1.0 in
      let inside_shrunk =
        inside (cx +. (0.9 *. (x -. cx)), cy +. (0.9 *. (y -. cy)))
      in
      let outside_grown =
        not (inside (cx +. (1.1 *. (x -. cx)), cy +. (1.1 *. (y -. cy))))
      in
      if not (inside_shrunk && outside_grown) then
        Alcotest.fail "boundary point mis-located")
    pts

(* --- Compare --- *)

let test_ks_identical () =
  let xs = gaussian_sample ~seed:15 ~n:500 ~mean:0.0 ~sigma:1.0 in
  check_float "ks self" 0.0 (C.ks_statistic xs xs)

let test_ks_disjoint () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 10.0; 11.0; 12.0 |] in
  check_float "ks disjoint" 1.0 (C.ks_statistic a b)

let test_ks_same_distribution_pvalue () =
  let a = gaussian_sample ~seed:16 ~n:800 ~mean:0.0 ~sigma:1.0 in
  let b = gaussian_sample ~seed:17 ~n:800 ~mean:0.0 ~sigma:1.0 in
  Alcotest.(check bool) "p > 0.01" true (C.ks_p_value a b > 0.01)

let test_ks_different_distribution_pvalue () =
  let a = gaussian_sample ~seed:18 ~n:800 ~mean:0.0 ~sigma:1.0 in
  let b = gaussian_sample ~seed:19 ~n:800 ~mean:1.0 ~sigma:1.0 in
  Alcotest.(check bool) "p < 0.01" true (C.ks_p_value a b < 0.01)

let test_density_overlap () =
  let a = gaussian_sample ~seed:20 ~n:2000 ~mean:0.0 ~sigma:1.0 in
  let b = gaussian_sample ~seed:21 ~n:2000 ~mean:0.0 ~sigma:1.0 in
  Alcotest.(check bool) "self-family overlap > 0.9" true (C.density_overlap a b > 0.9);
  let c = gaussian_sample ~seed:22 ~n:2000 ~mean:8.0 ~sigma:1.0 in
  Alcotest.(check bool) "far overlap < 0.1" true (C.density_overlap a c < 0.1)

let test_relative_diffs () =
  let a = [| 1.0; 2.0; 3.0 |] in
  let b = Array.map (fun x -> 2.0 *. x) a in
  check_float ~eps:1e-12 "mean diff" 0.5 (C.relative_mean_diff a b);
  check_float ~eps:1e-12 "std diff" 0.5 (C.relative_std_diff a b)

(* --- degenerate inputs --- *)

let test_variance_needs_two () =
  match D.variance [| 1.0 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    (* The message must carry enough context to debug a partial run:
       which function, what it needed, and what it got. *)
    let contains needle =
      let nl = String.length needle and l = String.length msg in
      let rec go i = i + nl <= l && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the function" true
      (contains "Descriptive.variance");
    Alcotest.(check bool) "states the got count" true (contains "got 1")

let test_mean_ci () =
  (* CI for a known sample: mean 2, std 1, n = 4 → half-width z * 1/2. *)
  let xs = [| 1.0; 2.0; 2.0; 3.0 |] in
  let mu = D.mean xs and sd = D.std xs in
  let lo, hi = D.mean_ci xs in
  check_float ~eps:1e-12 "centered" mu ((lo +. hi) /. 2.0);
  check_float ~eps:1e-6 "95% half-width" (1.959964 *. sd /. 2.0)
    ((hi -. lo) /. 2.0);
  (* Fewer samples → wider interval: a deadline-truncated run reports
     honestly degraded precision. *)
  let rng = Rng.create ~seed:41 in
  let big = Array.init 400 (fun _ -> Rng.gaussian rng) in
  let part = Array.sub big 0 40 in
  let blo, bhi = D.mean_ci big and plo, phi = D.mean_ci part in
  Alcotest.(check bool) "partial run has a wider CI" true
    (phi -. plo > bhi -. blo);
  match D.mean_ci [| 1.0 |] with
  | _ -> Alcotest.fail "CI from one sample accepted"
  | exception Invalid_argument _ -> ()

let test_ks_p_value_bounds () =
  let rng = Rng.create ~seed:40 in
  for _ = 1 to 20 do
    let a = Array.init 50 (fun _ -> Rng.gaussian rng) in
    let b = Array.init 50 (fun _ -> Rng.gaussian rng +. Rng.float rng) in
    let p = C.ks_p_value a b in
    if p < 0.0 || p > 1.0 then Alcotest.fail "p out of [0,1]"
  done

let test_ellipse_degenerate_constant () =
  (* Zero-variance axis: the ellipse collapses; contains must not crash and
     coverage must be 0 (nothing strictly inside a zero-area ellipse). *)
  let xs = Array.make 10 1.0 in
  let ys = Array.init 10 Float.of_int in
  let e = E.of_sigma_level ~n_sigma:1 xs ys in
  let cov = E.coverage e xs ys in
  Alcotest.(check bool) "no crash, bounded" true (cov >= 0.0 && cov <= 1.0)

(* --- qcheck --- *)

let nonempty_floats =
  QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.0) 1000.0))

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantiles stay within min/max" ~count:200
    QCheck.(pair nonempty_floats (float_range 0.0 1.0))
    (fun (xs, p) ->
      let xs = Array.of_list xs in
      let lo, hi = D.min_max xs in
      let q = D.quantile xs p in
      q >= lo -. 1e-9 && q <= hi +. 1e-9)

let prop_std_shift_invariant =
  QCheck.Test.make ~name:"std is shift invariant" ~count:200
    QCheck.(pair nonempty_floats (float_range (-100.0) 100.0))
    (fun (xs, shift) ->
      let xs = Array.of_list xs in
      let shifted = Array.map (fun x -> x +. shift) xs in
      Float.abs (D.std xs -. D.std shifted)
      <= 1e-6 *. Float.max 1.0 (D.std xs))

let prop_ks_symmetric =
  QCheck.Test.make ~name:"KS statistic is symmetric" ~count:100
    QCheck.(pair nonempty_floats nonempty_floats)
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      Float.abs (C.ks_statistic a b -. C.ks_statistic b a) < 1e-12)

let () =
  Alcotest.run "vstat_stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean/var/std" `Quick test_mean_var_std;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile unsorted" `Quick test_quantile_unsorted;
          Alcotest.test_case "skew symmetric" `Slow test_skewness_symmetric;
          Alcotest.test_case "skew lognormal" `Slow test_skewness_positive_for_lognormal;
          Alcotest.test_case "cov/corr" `Quick test_covariance_correlation;
          Alcotest.test_case "sigma/mu" `Quick test_sigma_over_mu;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "variance needs two" `Quick test_variance_needs_two;
          Alcotest.test_case "mean CI" `Quick test_mean_ci;
          Alcotest.test_case "weighted = unweighted on uniform w" `Quick
            test_weighted_matches_unweighted;
          Alcotest.test_case "weighted replication" `Quick
            test_weighted_mean_replication;
          Alcotest.test_case "zero weights ignored" `Quick
            test_weighted_zero_weight_ignored;
          Alcotest.test_case "weighted bad inputs" `Quick
            test_weighted_rejects_bad_weights;
          Alcotest.test_case "effective sample size" `Quick
            test_effective_sample_size;
          QCheck_alcotest.to_alcotest prop_quantile_bounds;
          QCheck_alcotest.to_alcotest prop_std_shift_invariant;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "kde integral" `Quick test_kde_integrates_to_one;
          Alcotest.test_case "kde peak" `Quick test_kde_peak_near_mean;
          Alcotest.test_case "sparkline" `Quick test_sparkline_length;
          Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
        ] );
      ( "qq",
        [
          Alcotest.test_case "gaussian linear" `Quick test_qq_gaussian_is_linear;
          Alcotest.test_case "lognormal nonlinear" `Quick test_qq_lognormal_is_nonlinear;
          Alcotest.test_case "series monotone" `Quick test_qq_series_monotone;
          Alcotest.test_case "tail deviation" `Slow test_tail_deviation_gaussian;
        ] );
      ( "ellipse",
        [
          Alcotest.test_case "sigma coverage" `Slow test_ellipse_coverage;
          Alcotest.test_case "center" `Quick test_ellipse_center;
          Alcotest.test_case "boundary points" `Quick test_ellipse_points_on_boundary;
          Alcotest.test_case "degenerate constant" `Quick test_ellipse_degenerate_constant;
        ] );
      ( "compare",
        [
          Alcotest.test_case "ks identical" `Quick test_ks_identical;
          Alcotest.test_case "ks disjoint" `Quick test_ks_disjoint;
          Alcotest.test_case "ks same dist" `Quick test_ks_same_distribution_pvalue;
          Alcotest.test_case "ks different dist" `Quick test_ks_different_distribution_pvalue;
          Alcotest.test_case "density overlap" `Quick test_density_overlap;
          Alcotest.test_case "relative diffs" `Quick test_relative_diffs;
          Alcotest.test_case "ks p bounds" `Quick test_ks_p_value_bounds;
          QCheck_alcotest.to_alcotest prop_ks_symmetric;
        ] );
    ]
