type t = { edges : float array; counts : int array; total : int }

(* Interquartile range with a single copy-and-sort (each Descriptive.quantile
   call would re-sort the sample). *)
let iqr xs =
  match Descriptive.quantiles xs [ 0.25; 0.75 ] with
  | [ q1; q3 ] -> q3 -. q1
  | _ -> assert false

let freedman_diaconis xs =
  let n = Array.length xs in
  let iqr = iqr xs in
  let lo, hi = Descriptive.min_max xs in
  if iqr <= 0.0 || hi <= lo then 16
  else begin
    let width = 2.0 *. iqr /. (Float.of_int n ** (1.0 /. 3.0)) in
    let bins = Float.to_int (Float.ceil ((hi -. lo) /. width)) in
    Int.max 8 (Int.min 128 bins)
  end

let build ?bins xs =
  if Array.length xs = 0 then
    invalid_arg
      "Histogram.build: empty sample (0 of the requested samples \
       completed — nothing to bin)";
  let bins = match bins with Some b -> Int.max 1 b | None -> freedman_diaconis xs in
  let lo, hi = Descriptive.min_max xs in
  let hi = if hi > lo then hi else lo +. 1.0 in
  let edges =
    Array.init (bins + 1) (fun i ->
        lo +. ((hi -. lo) *. Float.of_int i /. Float.of_int bins))
  in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let raw =
        Float.to_int (Float.of_int bins *. (x -. lo) /. (hi -. lo))
      in
      let b = Int.max 0 (Int.min (bins - 1) raw) in
      counts.(b) <- counts.(b) + 1)
    xs;
  { edges; counts; total = Array.length xs }

let silverman xs =
  let n = Float.of_int (Array.length xs) in
  let sigma = Descriptive.std xs in
  let iqr = iqr xs in
  let spread =
    if iqr > 0.0 then Float.min sigma (iqr /. 1.349) else sigma
  in
  let spread = if spread > 0.0 then spread else 1.0 in
  0.9 *. spread *. (n ** (-0.2))

let kde ?(points = 101) xs =
  if Array.length xs < 2 then
    invalid_arg
      (Printf.sprintf
         "Histogram.kde: need at least 2 samples for a bandwidth, got %d"
         (Array.length xs));
  let h = silverman xs in
  let lo, hi = Descriptive.min_max xs in
  let lo = lo -. (3.0 *. h) and hi = hi +. (3.0 *. h) in
  let grid = Vstat_util.Floatx.linspace lo hi points in
  let n = Float.of_int (Array.length xs) in
  Array.map
    (fun x ->
      let acc = ref 0.0 in
      Array.iter
        (fun xi -> acc := !acc +. Vstat_util.Special.normal_pdf ((x -. xi) /. h))
        xs;
      (x, !acc /. (n *. h)))
    grid

let confidence = 0.95

let wilson_interval ~k n =
  if n <= 0 then invalid_arg "Histogram.wilson_interval: n must be positive";
  if k < 0 || k > n then
    invalid_arg
      (Printf.sprintf "Histogram.wilson_interval: k=%d outside [0, %d]" k n);
  let z = Vstat_util.Special.normal_quantile (0.5 +. (confidence /. 2.0)) in
  let nf = Float.of_int n in
  let p = Float.of_int k /. nf in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. nf) in
  let center = (p +. (z2 /. (2.0 *. nf))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf)))
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))

type tail_estimate = {
  t_prob : float;
  t_count : int;
  t_n : int;
  t_lo : float;
  t_hi : float;
}

let exceedance ?(tail = `Upper) xs threshold =
  let n = Array.length xs in
  if n = 0 then
    invalid_arg "Histogram.exceedance: empty sample — nothing to count";
  let k = ref 0 in
  (match tail with
  | `Upper -> Array.iter (fun x -> if x > threshold then incr k) xs
  | `Lower -> Array.iter (fun x -> if x < threshold then incr k) xs);
  let k = !k in
  let lo, hi = wilson_interval ~k n in
  { t_prob = Float.of_int k /. Float.of_int n; t_count = k; t_n = n;
    t_lo = lo; t_hi = hi }

let sparkline ?(width = 60) ys =
  if Array.length ys = 0 then ""
  else begin
    let glyphs = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
    let n = Array.length ys in
    let sampled =
      Array.init (Int.min width n) (fun i ->
          ys.(i * n / Int.min width n))
    in
    let lo, hi = Descriptive.min_max sampled in
    let span = if hi > lo then hi -. lo else 1.0 in
    let buf = Buffer.create width in
    Array.iter
      (fun y ->
        let level = Float.to_int (8.0 *. (y -. lo) /. span) in
        Buffer.add_string buf glyphs.(Int.max 0 (Int.min 8 level)))
      sampled;
    Buffer.contents buf
  end
