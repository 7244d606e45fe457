let residual_norm a x b =
  let r = Matrix.mul_vec a x in
  let acc = ref 0.0 in
  Array.iteri (fun i ri -> let d = ri -. b.(i) in acc := !acc +. (d *. d)) r;
  sqrt !acc

(* Solve the unconstrained least-squares problem restricted to the columns in
   the passive set, returning the full-length solution with zeros on the
   active (clamped) coordinates. *)
let solve_passive a b passive =
  let n = Matrix.cols a in
  let idx =
    Array.of_list
      (List.filter (fun j -> passive.(j)) (List.init n Fun.id))
  in
  if Array.length idx = 0 then Array.make n 0.0
  else begin
    let sub =
      Matrix.init ~rows:(Matrix.rows a) ~cols:(Array.length idx)
        ~f:(fun i k -> Matrix.get a i idx.(k))
    in
    let z = Qr.least_squares sub b in
    let x = Array.make n 0.0 in
    Array.iteri (fun k j -> x.(j) <- z.(k)) idx;
    x
  end

let solve a b =
  let m = Matrix.rows a and n = Matrix.cols a in
  if Array.length b <> m then invalid_arg "Nnls.solve: rhs length";
  let max_iter = 10 * n in
  let passive = Array.make n false in
  let x = Array.make n 0.0 in
  let gradient () =
    (* w = A^T (b - A x) *)
    let r = Matrix.mul_vec a x in
    let resid = Array.init m (fun i -> b.(i) -. r.(i)) in
    Array.init n (fun j ->
        let acc = ref 0.0 in
        for i = 0 to m - 1 do
          acc := !acc +. (Matrix.get a i j *. resid.(i))
        done;
        !acc)
  in
  let tol =
    let anorm = Matrix.max_abs a in
    1e-12 *. Float.max 1.0 anorm *. Float.of_int m
  in
  let iterations = ref 0 in
  let rec outer () =
    incr iterations;
    if !iterations > max_iter then
      Linalg_error.fail ~routine:"Nnls.solve"
        ~reason:"active-set iteration did not converge";
    let w = gradient () in
    (* Most-violating inactive coordinate. *)
    let best = ref (-1) in
    let best_w = ref tol in
    for j = 0 to n - 1 do
      if (not passive.(j)) && w.(j) > !best_w then begin
        best := j;
        best_w := w.(j)
      end
    done;
    if !best < 0 then () (* KKT satisfied *)
    else begin
      passive.(!best) <- true;
      inner ();
      outer ()
    end
  and inner () =
    let z = solve_passive a b passive in
    (* If the unconstrained sub-solution is feasible, accept it. *)
    let feasible = ref true in
    for j = 0 to n - 1 do
      if passive.(j) && z.(j) <= 0.0 then feasible := false
    done;
    if !feasible then Array.blit z 0 x 0 n
    else begin
      (* Step from x toward z as far as feasibility allows, then drop the
         coordinates that hit zero from the passive set. *)
      let alpha = ref infinity in
      for j = 0 to n - 1 do
        if passive.(j) && z.(j) <= 0.0 then begin
          let a_j = x.(j) /. (x.(j) -. z.(j)) in
          if a_j < !alpha then alpha := a_j
        end
      done;
      let alpha = if Float.is_finite !alpha then !alpha else 0.0 in
      for j = 0 to n - 1 do
        x.(j) <- x.(j) +. (alpha *. (z.(j) -. x.(j)));
        if passive.(j) && x.(j) <= 1e-14 then begin
          x.(j) <- 0.0;
          passive.(j) <- false
        end
      done;
      inner ()
    end
  in
  outer ();
  x
