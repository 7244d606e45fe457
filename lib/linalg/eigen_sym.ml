type result = { values : float array; vectors : Matrix.t }

let off_diagonal_norm a =
  let n = Matrix.rows a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let v = Matrix.get a i j in
        acc := !acc +. (v *. v)
      end
    done
  done;
  sqrt !acc

let max_sweeps = 100

let decompose a0 =
  let n = Matrix.rows a0 in
  if Matrix.cols a0 <> n then invalid_arg "Eigen_sym.decompose: square only";
  let a =
    Matrix.init ~rows:n ~cols:n ~f:(fun i j ->
        0.5 *. (Matrix.get a0 i j +. Matrix.get a0 j i))
  in
  let v = Matrix.identity n in
  let scale = Float.max 1.0 (Matrix.max_abs a) in
  let tol = 1e-14 *. scale *. Float.of_int n in
  let sweeps = ref 0 in
  while off_diagonal_norm a > tol && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Matrix.get a p q in
        if Float.abs apq > tol /. Float.of_int (n * n) then begin
          let app = Matrix.get a p p and aqq = Matrix.get a q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let sign = if theta >= 0.0 then 1.0 else -1.0 in
            sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* Apply the rotation to rows/columns p and q of A. *)
          for k = 0 to n - 1 do
            let akp = Matrix.get a k p and akq = Matrix.get a k q in
            Matrix.set a k p ((c *. akp) -. (s *. akq));
            Matrix.set a k q ((s *. akp) +. (c *. akq))
          done;
          for k = 0 to n - 1 do
            let apk = Matrix.get a p k and aqk = Matrix.get a q k in
            Matrix.set a p k ((c *. apk) -. (s *. aqk));
            Matrix.set a q k ((s *. apk) +. (c *. aqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Matrix.get v k p and vkq = Matrix.get v k q in
            Matrix.set v k p ((c *. vkp) -. (s *. vkq));
            Matrix.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  if !sweeps >= max_sweeps && off_diagonal_norm a > tol *. 100.0 then
    Linalg_error.fail ~routine:"Eigen_sym.decompose"
      ~reason:"Jacobi did not converge";
  let order =
    List.sort
      (fun i j -> Float.compare (Matrix.get a j j) (Matrix.get a i i))
      (List.init n Fun.id)
  in
  let order = Array.of_list order in
  let values = Array.map (fun i -> Matrix.get a i i) order in
  let vectors =
    Matrix.init ~rows:n ~cols:n ~f:(fun i j -> Matrix.get v i order.(j))
  in
  { values; vectors }
