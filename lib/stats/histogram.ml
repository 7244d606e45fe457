(* Interquartile range with a single copy-and-sort (each Descriptive.quantile
   call would re-sort the sample). *)
let iqr xs =
  match Descriptive.quantiles xs [ 0.25; 0.75 ] with
  | [ q1; q3 ] -> q3 -. q1
  | _ -> assert false

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

let wilson_interval ~k n =
  if n <= 0 then invalid_arg "Histogram.wilson_interval: n must be positive";
  if k < 0 || k > n then
    invalid_arg
      (Printf.sprintf "Histogram.wilson_interval: k=%d outside [0, %d]" k n);
  let z = Vstat_util.Special.z95 in
  let nf = Float.of_int n in
  let p = Float.of_int k /. nf in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. nf) in
  let center = (p +. (z2 /. (2.0 *. nf))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf)))
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))

(* Width of every sparkline, in glyphs. *)
let width = 60

let sparkline ys =
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
