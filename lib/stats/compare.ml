let ks_statistic a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then invalid_arg "Compare.ks_statistic: empty sample";
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort Float.compare sa;
  Array.sort Float.compare sb;
  let d = ref 0.0 in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = Float.min sa.(!i) sb.(!j) in
    while !i < na && sa.(!i) <= x do incr i done;
    while !j < nb && sb.(!j) <= x do incr j done;
    let fa = Float.of_int !i /. Float.of_int na in
    let fb = Float.of_int !j /. Float.of_int nb in
    d := Float.max !d (Float.abs (fa -. fb))
  done;
  !d

let ks_p_value a b =
  let d = ks_statistic a b in
  let na = Float.of_int (Array.length a) and nb = Float.of_int (Array.length b) in
  let ne = na *. nb /. (na +. nb) in
  let lambda = (sqrt ne +. 0.12 +. (0.11 /. sqrt ne)) *. d in
  (* Kolmogorov distribution tail series. *)
  let acc = ref 0.0 in
  for k = 1 to 100 do
    let k = Float.of_int k in
    let term =
      ((-1.0) ** (k -. 1.0)) *. exp (-2.0 *. k *. k *. lambda *. lambda)
    in
    acc := !acc +. term
  done;
  Vstat_util.Floatx.clamp ~lo:0.0 ~hi:1.0 (2.0 *. !acc)

let relative_std_diff a b =
  Float.abs (Descriptive.std a -. Descriptive.std b) /. Descriptive.std b

let relative_mean_diff a b =
  Float.abs (Descriptive.mean a -. Descriptive.mean b)
  /. Float.abs (Descriptive.mean b)

let density_overlap a b =
  let points = 201 in
  let lo = Float.min (fst (Descriptive.min_max a)) (fst (Descriptive.min_max b)) in
  let hi = Float.max (snd (Descriptive.min_max a)) (snd (Descriptive.min_max b)) in
  let span = if hi > lo then hi -. lo else 1.0 in
  let lo = lo -. (0.05 *. span) and hi = hi +. (0.05 *. span) in
  let grid = Vstat_util.Floatx.linspace lo hi points in
  let kde xs =
    let series = Histogram.kde ~points xs in
    let gx = Array.map fst series and gy = Array.map snd series in
    Array.map (fun x -> Vstat_util.Floatx.interp_linear ~xs:gx ~ys:gy x) grid
  in
  let fa = kde a and fb = kde b in
  let dx = (hi -. lo) /. Float.of_int (points - 1) in
  let acc = ref 0.0 in
  for i = 0 to points - 1 do
    acc := !acc +. (Float.min (Float.max fa.(i) 0.0) (Float.max fb.(i) 0.0) *. dx)
  done;
  Float.min 1.0 !acc
