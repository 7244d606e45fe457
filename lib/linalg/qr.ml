type t = {
  qr : Matrix.t;       (* Householder vectors below the diagonal, R above *)
  rdiag : float array; (* diagonal of R *)
  m : int;
  n : int;
}

let factor a =
  let m = Matrix.rows a and n = Matrix.cols a in
  if m < n then invalid_arg "Qr.factor: need rows >= cols";
  let qr = Matrix.copy a in
  let rdiag = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* Norm of the k-th column below the diagonal. *)
    let nrm = ref 0.0 in
    for i = k to m - 1 do
      let v = Matrix.get qr i k in
      nrm := Float.hypot !nrm v
    done;
    let nrm = if Matrix.get qr k k < 0.0 then -. !nrm else !nrm in
    if not (Float.equal nrm 0.0) then begin
      for i = k to m - 1 do
        Matrix.set qr i k (Matrix.get qr i k /. nrm)
      done;
      Matrix.add_to qr k k 1.0;
      for j = k + 1 to n - 1 do
        let s = ref 0.0 in
        for i = k to m - 1 do
          s := !s +. (Matrix.get qr i k *. Matrix.get qr i j)
        done;
        let s = -. !s /. Matrix.get qr k k in
        for i = k to m - 1 do
          Matrix.add_to qr i j (s *. Matrix.get qr i k)
        done
      done
    end;
    rdiag.(k) <- -.nrm
  done;
  { qr; rdiag; m; n }

let q_transpose_apply { qr; m; n; _ } b =
  if Array.length b <> m then invalid_arg "Qr.q_transpose_apply: length";
  let y = Array.copy b in
  for k = 0 to n - 1 do
    if not (Float.equal (Matrix.get qr k k) 0.0) then begin
      let s = ref 0.0 in
      for i = k to m - 1 do
        s := !s +. (Matrix.get qr i k *. y.(i))
      done;
      let s = -. !s /. Matrix.get qr k k in
      for i = k to m - 1 do
        y.(i) <- y.(i) +. (s *. Matrix.get qr i k)
      done
    end
  done;
  y

let solve_r { qr; rdiag; n; _ } y =
  let x = Array.sub y 0 n in
  for k = n - 1 downto 0 do
    if Float.abs rdiag.(k) < 1e-280 then
      Linalg_error.fail ~routine:"Qr.solve_r" ~reason:"rank-deficient system";
    for j = k + 1 to n - 1 do
      x.(k) <- x.(k) -. (Matrix.get qr k j *. x.(j))
    done;
    x.(k) <- x.(k) /. rdiag.(k)
  done;
  x

let least_squares a b =
  let f = factor a in
  solve_r f (q_transpose_apply f b)
