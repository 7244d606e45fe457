(* Unit and property tests for Vstat_util: RNG, special functions, float
   helpers. *)

module Rng = Vstat_util.Rng
module Special = Vstat_util.Special
module Floatx = Vstat_util.Floatx

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = Array.init 100 (fun _ -> Rng.float a) in
  let ys = Array.init 100 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "split stream differs" true
    (Array.map Int64.bits_of_float xs <> Array.map Int64.bits_of_float ys)

let test_rng_float_range () =
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_int_bound () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng ~bound:7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of bound"
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:4 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng ~bound:0))

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:5 in
  let n = 200_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. Float.of_int n in
  let var = (!sum2 /. Float.of_int n) -. (mean *. mean) in
  check_float ~eps:0.02 "gaussian mean" 0.0 mean;
  check_float ~eps:0.02 "gaussian variance" 1.0 var

let test_rng_gaussian_scaled () =
  let rng = Rng.create ~seed:6 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian_scaled rng ~mean:3.0 ~sigma:0.5) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. Float.of_int n in
  check_float ~eps:0.02 "scaled mean" 3.0 mean

let test_rng_lognormal_positive () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    if Rng.lognormal rng ~mu:0.0 ~sigma:1.0 <= 0.0 then
      Alcotest.fail "lognormal must be positive"
  done

(* --- Special --- *)

(* erf and erfc through the normal CDF built on them:
   erf x = 2 Phi(x sqrt 2) - 1 and erfc x = 2 Phi(-x sqrt 2). *)
let erf x = (2.0 *. Special.normal_cdf (x *. sqrt 2.0)) -. 1.0
let erfc x = 2.0 *. Special.normal_cdf (-.x *. sqrt 2.0)

let test_erf_known_values () =
  (* Abramowitz & Stegun table values. *)
  check_float ~eps:2e-7 "erf 0" 0.0 (erf 0.0);
  check_float ~eps:2e-7 "erf 0.5" 0.5204999 (erf 0.5);
  check_float ~eps:2e-7 "erf 1" 0.8427008 (erf 1.0);
  check_float ~eps:2e-7 "erf 2" 0.9953223 (erf 2.0);
  check_float ~eps:2e-7 "erf -1 odd" (-.erf 1.0) (erf (-1.0))

let test_erfc_complement () =
  (* The complements of the same table values, from the lower tail. *)
  check_float ~eps:2e-7 "erfc 0.5" (1.0 -. 0.5204999) (erfc 0.5);
  check_float ~eps:2e-7 "erfc 1" (1.0 -. 0.8427008) (erfc 1.0);
  check_float ~eps:2e-7 "erfc 2" (1.0 -. 0.9953223) (erfc 2.0);
  check_float ~eps:2e-7 "erfc -1" (1.0 +. 0.8427008) (erfc (-1.0))

let test_normal_cdf_symmetry () =
  check_float ~eps:1e-9 "cdf 0" 0.5 (Special.normal_cdf 0.0);
  List.iter
    (fun x ->
      check_float ~eps:1e-6 "cdf symmetry" 1.0
        (Special.normal_cdf x +. Special.normal_cdf (-.x)))
    [ 0.5; 1.0; 2.5 ]

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      let x = Special.normal_quantile p in
      check_float ~eps:1e-6 "quantile/cdf roundtrip" p (Special.normal_cdf x))
    [ 0.001; 0.025; 0.31; 0.5; 0.84; 0.975; 0.999 ]

let test_normal_quantile_known () =
  check_float ~eps:1e-4 "q(0.975)" 1.959964 (Special.normal_quantile 0.975);
  check_float ~eps:1e-4 "q(0.5)" 0.0 (Special.normal_quantile 0.5);
  check_float ~eps:1e-3 "q(0.00135) ~ -3" (-3.0) (Special.normal_quantile 0.0013499)

let test_normal_quantile_domain () =
  List.iter
    (fun p ->
      match Special.normal_quantile p with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ 0.0; 1.0; -0.1; 1.5 ]

(* --- Floatx --- *)

let test_close () =
  Alcotest.(check bool) "equal" true (Floatx.close 1.0 1.0);
  Alcotest.(check bool) "tiny diff" true (Floatx.close 1.0 (1.0 +. 1e-13));
  Alcotest.(check bool) "big diff" false (Floatx.close 1.0 1.1)

let test_clamp () =
  check_float "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-3.0));
  check_float "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_linspace () =
  let xs = Floatx.linspace 0.0 1.0 5 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  check_float "first" 0.0 xs.(0);
  check_float "last" 1.0 xs.(4);
  check_float "mid" 0.5 xs.(2)

let test_logspace () =
  let xs = Floatx.logspace 0.0 2.0 3 in
  check_float ~eps:1e-9 "10^0" 1.0 xs.(0);
  check_float ~eps:1e-9 "10^1" 10.0 xs.(1);
  check_float ~eps:1e-9 "10^2" 100.0 xs.(2)

let test_interp_linear () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 40.0 |] in
  check_float "node" 10.0 (Floatx.interp_linear ~xs ~ys 1.0);
  check_float "segment" 5.0 (Floatx.interp_linear ~xs ~ys 0.5);
  check_float "segment2" 25.0 (Floatx.interp_linear ~xs ~ys 1.5);
  (* Linear extrapolation from end segments. *)
  check_float "extrapolate right" 70.0 (Floatx.interp_linear ~xs ~ys 3.0)

let test_first_crossing () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 0.0; 0.4; 0.8; 1.0 |] in
  (match Floatx.first_crossing ~xs ~ys ~level:0.6 ~rising:true () with
  | Some t -> check_float ~eps:1e-12 "rising crossing" 1.5 t
  | None -> Alcotest.fail "expected crossing");
  (match Floatx.first_crossing ~xs ~ys ~level:0.6 ~rising:false () with
  | Some _ -> Alcotest.fail "no falling crossing expected"
  | None -> ())

let test_log10_safe () =
  check_float "normal" 2.0 (Floatx.log10_safe 100.0);
  Alcotest.(check bool) "zero is finite" true
    (Float.is_finite (Floatx.log10_safe 0.0));
  Alcotest.(check bool) "negative is finite" true
    (Float.is_finite (Floatx.log10_safe (-5.0)))

let test_softplus () =
  check_float ~eps:1e-12 "large x" 50.0 (Floatx.softplus 50.0);
  check_float ~eps:1e-12 "zero" (log 2.0) (Floatx.softplus 0.0);
  Alcotest.(check bool) "very negative ~ exp" true
    (Floatx.close ~rtol:1e-6 (exp (-50.0)) (Floatx.softplus (-50.0)))

let test_pp_table () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Floatx.pp_table ppf ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "a")

(* --- qcheck properties --- *)

let prop_uniform_in_range =
  QCheck.Test.make ~name:"uniform stays in [lo,hi)" ~count:200
    QCheck.(pair (int_range 0 10_000) (pair (float_range (-5.0) 5.0) (float_range 0.01 5.0)))
    (fun (seed, (lo, width)) ->
      let rng = Rng.create ~seed in
      let hi = lo +. width in
      let x = Rng.uniform rng ~lo ~hi in
      x >= lo && x < hi)

let prop_interp_at_nodes =
  QCheck.Test.make ~name:"interp reproduces nodes" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 10) (float_range (-100.0) 100.0))
    (fun ys ->
      let ys = Array.of_list ys in
      let xs = Array.init (Array.length ys) Float.of_int in
      Array.for_all
        (fun i ->
          Floatx.close ~atol:1e-9
            (Floatx.interp_linear ~xs ~ys xs.(i))
            ys.(i))
        (Array.init (Array.length ys) Fun.id))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"normal_quantile is monotone" ~count:200
    QCheck.(pair (float_range 0.01 0.98) (float_range 0.001 0.019))
    (fun (p, dp) ->
      Special.normal_quantile (p +. dp) > Special.normal_quantile p)

(* The inverse-CDF contract the rare-event machinery leans on (Wilson
   intervals, sigma-shift design points): cdf o quantile = id well into
   the tails — exercised down to p = 1e-9, i.e. past 5 sigma — and
   quantile o cdf = id over the central +-5-sigma range.  The Acklam-style
   rational approximation is good to ~1e-5 relative at the deepest tail
   probed, so that is the bound asserted. *)
let prop_quantile_cdf_roundtrip =
  QCheck.Test.make ~name:"normal_cdf (normal_quantile p) = p" ~count:500
    QCheck.(float_range (-9.0) (log10 0.5))
    (fun log10_p ->
      let p = 10.0 ** log10_p in
      let p' = Special.normal_cdf (Special.normal_quantile p) in
      Float.abs (p' -. p) <= 5e-5 *. p +. 1e-15)

let prop_cdf_quantile_roundtrip =
  QCheck.Test.make ~name:"normal_quantile (normal_cdf x) = x" ~count:500
    QCheck.(float_range (-5.0) 5.0)
    (fun x ->
      let x' = Special.normal_quantile (Special.normal_cdf x) in
      Float.abs (x' -. x) <= 1e-5 *. (1.0 +. Float.abs x))

let () =
  Alcotest.run "vstat_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bound" `Quick test_rng_int_bound;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "gaussian scaled" `Quick test_rng_gaussian_scaled;
          Alcotest.test_case "lognormal positive" `Quick test_rng_lognormal_positive;
          QCheck_alcotest.to_alcotest prop_uniform_in_range;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf known" `Quick test_erf_known_values;
          Alcotest.test_case "erfc complement" `Quick test_erfc_complement;
          Alcotest.test_case "cdf symmetry" `Quick test_normal_cdf_symmetry;
          Alcotest.test_case "quantile roundtrip" `Quick test_normal_quantile_roundtrip;
          Alcotest.test_case "quantile known" `Quick test_normal_quantile_known;
          Alcotest.test_case "quantile domain" `Quick test_normal_quantile_domain;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
          QCheck_alcotest.to_alcotest prop_quantile_cdf_roundtrip;
          QCheck_alcotest.to_alcotest prop_cdf_quantile_roundtrip;
        ] );
      ( "floatx",
        [
          Alcotest.test_case "close" `Quick test_close;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "logspace" `Quick test_logspace;
          Alcotest.test_case "interp" `Quick test_interp_linear;
          Alcotest.test_case "first_crossing" `Quick test_first_crossing;
          Alcotest.test_case "log10_safe" `Quick test_log10_safe;
          Alcotest.test_case "softplus" `Quick test_softplus;
          Alcotest.test_case "pp_table" `Quick test_pp_table;
          QCheck_alcotest.to_alcotest prop_interp_at_nodes;
        ] );
    ]
