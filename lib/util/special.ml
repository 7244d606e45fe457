let sqrt2 = sqrt 2.0
let sqrt_2pi = sqrt (2.0 *. Float.pi)

(* Abramowitz & Stegun 7.1.26, |error| < 1.5e-7. *)
let erf x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let poly =
    t
    *. (0.254829592
        +. (t
            *. (-0.284496736
                +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  sign *. (1.0 -. (poly *. exp (-.x *. x)))

let erfc x = 1.0 -. erf x

let normal_cdf x = 0.5 *. erfc (-.x /. sqrt2)

let normal_pdf x = exp (-0.5 *. x *. x) /. sqrt_2pi

(* Acklam's rational approximation for the inverse normal CDF, refined by one
   Halley step against [normal_cdf] to push the error below 1e-9. *)
let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Special.normal_quantile: p must lie in (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* One Halley refinement step. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt_2pi *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let z95 = normal_quantile (0.5 +. (0.95 /. 2.0))
