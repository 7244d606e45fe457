let require_samples xs n name =
  let got = Array.length xs in
  if got < n then
    invalid_arg
      (Printf.sprintf
         "Descriptive.%s: need at least %d sample%s, got %d — partial or \
          empty runs must be reported, not summarized"
         name n
         (if n = 1 then "" else "s")
         got)

let mean xs =
  require_samples xs 1 "mean";
  Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

let central_moment xs ~order ~mu =
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := !acc +. ((x -. mu) ** Float.of_int order)) xs;
  !acc /. Float.of_int (Array.length xs)

let variance xs =
  require_samples xs 2 "variance";
  let mu = mean xs in
  let n = Float.of_int (Array.length xs) in
  central_moment xs ~order:2 ~mu *. n /. (n -. 1.0)

let std xs = sqrt (variance xs)

let sigma_over_mu xs = std xs /. Float.abs (mean xs)

let min_max xs =
  require_samples xs 1 "min_max";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let skewness xs =
  require_samples xs 3 "skewness";
  let mu = mean xs in
  let n = Float.of_int (Array.length xs) in
  let m2 = central_moment xs ~order:2 ~mu in
  let m3 = central_moment xs ~order:3 ~mu in
  let g1 = m3 /. (m2 ** 1.5) in
  g1 *. sqrt (n *. (n -. 1.0)) /. (n -. 2.0)

let quantile_of_sorted sorted p =
  require_samples sorted 1 "quantile_of_sorted";
  if p < 0.0 || p > 1.0 then invalid_arg "Descriptive.quantile: p in [0,1]";
  let n = Array.length sorted in
  let h = p *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor h) in
  let hi = Int.min (lo + 1) (n - 1) in
  let frac = h -. Float.of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let quantile xs p =
  require_samples xs 1 "quantile";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  quantile_of_sorted sorted p

let quantiles xs ps =
  require_samples xs 1 "quantiles";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.map (quantile_of_sorted sorted) ps

(* Normal-approximation two-sided 95 % confidence interval on the mean.  The
   half-width scales as 1/sqrt(n), so the interval a deadline-degraded
   partial run reports is honestly wider than the full run's would be. *)
let mean_ci xs =
  require_samples xs 2 "mean_ci";
  let mu = mean xs in
  let n = Float.of_int (Array.length xs) in
  let z = Vstat_util.Special.z95 in
  let half = z *. std xs /. sqrt n in
  (mu -. half, mu +. half)

(* --- weighted statistics (importance-sampling support) ----------------- *)

let check_weights xs ~w name =
  require_samples xs 1 name;
  if Array.length xs <> Array.length w then
    invalid_arg
      (Printf.sprintf "Descriptive.%s: %d samples but %d weights" name
         (Array.length xs) (Array.length w));
  let sum = ref 0.0 in
  Array.iter
    (fun wi ->
      if (not (Float.is_finite wi)) || wi < 0.0 then
        invalid_arg
          (Printf.sprintf
             "Descriptive.%s: weights must be finite and non-negative, got %g"
             name wi);
      sum := !sum +. wi)
    w;
  if not (!sum > 0.0) then
    invalid_arg
      (Printf.sprintf "Descriptive.%s: weight vector sums to zero" name);
  !sum

let weighted_mean xs ~w =
  let s1 = check_weights xs ~w "weighted_mean" in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (w.(i) *. x)) xs;
  !acc /. s1

let effective_sample_size w =
  let s1 = check_weights w ~w "effective_sample_size" in
  let s2 = Array.fold_left (fun acc wi -> acc +. (wi *. wi)) 0.0 w in
  s1 *. s1 /. s2

let covariance xs ys =
  require_samples xs 2 "covariance";
  if Array.length xs <> Array.length ys then
    invalid_arg "Descriptive.covariance: length mismatch";
  let mx = mean xs and my = mean ys in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. ((x -. mx) *. (ys.(i) -. my))) xs;
  !acc /. Float.of_int (Array.length xs - 1)

let correlation xs ys =
  covariance xs ys /. (std xs *. std ys)
