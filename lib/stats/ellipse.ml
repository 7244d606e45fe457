type t = {
  center : float * float;
  axis_lengths : float * float;
  angle : float;
  confidence : float;
}

let of_sigma_level ~n_sigma xs ys =
  if n_sigma < 1 then invalid_arg "Ellipse.of_sigma_level: n_sigma >= 1";
  if Array.length xs <> Array.length ys then
    invalid_arg "Ellipse: length mismatch";
  if Array.length xs < 3 then invalid_arg "Ellipse: need >= 3 samples";
  let k = Float.of_int n_sigma in
  let radius2 = k *. k in
  let cxx = Descriptive.variance xs in
  let cyy = Descriptive.variance ys in
  let cxy = Descriptive.covariance xs ys in
  let cov = Vstat_linalg.Matrix.of_rows [| [| cxx; cxy |]; [| cxy; cyy |] |] in
  let { Vstat_linalg.Eigen_sym.values; vectors } =
    Vstat_linalg.Eigen_sym.decompose cov
  in
  let major = sqrt (Float.max values.(0) 0.0 *. radius2) in
  let minor = sqrt (Float.max values.(1) 0.0 *. radius2) in
  let vx = Vstat_linalg.Matrix.get vectors 0 0 in
  let vy = Vstat_linalg.Matrix.get vectors 1 0 in
  {
    center = (Descriptive.mean xs, Descriptive.mean ys);
    axis_lengths = (major, minor);
    angle = Float.atan2 vy vx;
    confidence = 1.0 -. exp (-.radius2 /. 2.0);
  }

let points t ~n =
  let cx, cy = t.center in
  let a, b = t.axis_lengths in
  let ca = cos t.angle and sa = sin t.angle in
  Array.init n (fun i ->
      let theta = 2.0 *. Float.pi *. Float.of_int i /. Float.of_int n in
      let ex = a *. cos theta and ey = b *. sin theta in
      (cx +. (ca *. ex) -. (sa *. ey), cy +. (sa *. ex) +. (ca *. ey)))

let contains t (x, y) =
  let cx, cy = t.center in
  let a, b = t.axis_lengths in
  let ca = cos t.angle and sa = sin t.angle in
  let dx = x -. cx and dy = y -. cy in
  (* Rotate into the ellipse frame. *)
  let u = (ca *. dx) +. (sa *. dy) in
  let v = (-.sa *. dx) +. (ca *. dy) in
  if a <= 0.0 || b <= 0.0 then false
  else ((u /. a) ** 2.0) +. ((v /. b) ** 2.0) <= 1.0

let coverage t xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Ellipse.coverage: length mismatch";
  let inside = ref 0 in
  Array.iteri
    (fun i x -> if contains t (x, ys.(i)) then incr inside)
    xs;
  Float.of_int !inside /. Float.of_int (Array.length xs)
