(* Unit and property tests for Vstat_linalg. *)

module M = Vstat_linalg.Matrix
module Lu = Vstat_linalg.Lu
module Qr = Vstat_linalg.Qr
module Nnls = Vstat_linalg.Nnls
module Eigen = Vstat_linalg.Eigen_sym
module Vec = Vstat_linalg.Vec

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* max_i |a_i - b_i| *)
let max_abs_diff a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := Float.max !acc (Float.abs (x -. b.(i)))) a;
  !acc

(* --- Matrix --- *)

let test_create_zero () =
  let m = M.create ~rows:2 ~cols:3 in
  Alcotest.(check int) "rows" 2 (M.rows m);
  Alcotest.(check int) "cols" 3 (M.cols m);
  check_float "zero" 0.0 (M.get m 1 2)

let test_init_get_set () =
  let m = M.init ~rows:3 ~cols:3 ~f:(fun i j -> Float.of_int ((10 * i) + j)) in
  check_float "get" 21.0 (M.get m 2 1);
  M.set m 2 1 5.0;
  check_float "set" 5.0 (M.get m 2 1);
  M.add_to m 2 1 1.5;
  check_float "add_to" 6.5 (M.get m 2 1)

let test_identity_mul () =
  let v = [| 1.5; -2.0; 7.25 |] in
  Alcotest.(check (array (float 0.0))) "I*v = v" v (M.mul_vec (M.identity 3) v)

let test_mul_vec () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = M.mul_vec a [| 1.0; 1.0 |] in
  check_float "row0" 3.0 y.(0);
  check_float "row1" 7.0 y.(1)

let test_of_rows_ragged () =
  match M.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_add_sub_scale () =
  let a = M.of_rows [| [| 1.0; 2.0 |] |] in
  let b = M.of_rows [| [| 3.0; 5.0 |] |] in
  check_float "add" 7.0 (M.get (M.add a b) 0 1);
  check_float "sub" (-2.0) (M.get (M.sub a b) 0 0);
  check_float "scale" 4.0 (M.get (M.scale 2.0 a) 0 1);
  check_float "max_abs" 5.0 (M.max_abs b)

(* --- Lu --- *)

let test_lu_solve_known () =
  let a = M.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_lu_singular () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.factor a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Lu.Singular _ -> ()

let test_lu_needs_pivoting () =
  (* Zero on the leading diagonal forces a row swap. *)
  let a = M.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve a [| 2.0; 3.0 |] in
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_in_place_matches_solve () =
  let rows = [| [| 2.0; 1.0; -1.0 |]; [| -3.0; -1.0; 2.0 |]; [| -2.0; 1.0; 2.0 |] |] in
  let b = [| 8.0; -11.0; -3.0 |] in
  let expected = Lu.solve (M.of_rows rows) b in
  let a = M.of_rows rows in
  let pivots = Array.make 3 0 in
  let sign = Lu.factor_in_place a ~pivots in
  Alcotest.(check bool) "sign is +-1" true (abs sign = 1);
  let x = Array.copy b in
  Lu.solve_in_place ~lu:a ~pivots x;
  Array.iteri
    (fun i e -> check_float ~eps:1e-12 (Printf.sprintf "x%d" i) e x.(i))
    expected

let test_lu_in_place_pivoting () =
  (* Leading zero forces a swap; the recorded pivots must replay it. *)
  let a = M.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let pivots = Array.make 2 0 in
  let sign = Lu.factor_in_place a ~pivots in
  Alcotest.(check int) "swap sign" (-1) sign;
  let x = [| 2.0; 3.0 |] in
  Lu.solve_in_place ~lu:a ~pivots x;
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_in_place_validates () =
  let a = M.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  (match Lu.factor_in_place a ~pivots:(Array.make 3 0) with
  | _ -> Alcotest.fail "expected Invalid_argument for bad pivot length"
  | exception Invalid_argument _ -> ());
  let r = M.create ~rows:2 ~cols:3 in
  match Lu.factor_in_place r ~pivots:(Array.make 2 0) with
  | _ -> Alcotest.fail "expected Invalid_argument for non-square"
  | exception Invalid_argument _ -> ()

(* Regression (shape-guard bugfix): a non-square "factor" smuggled through
   the raw API must be rejected, not read out of bounds. *)
let test_lu_solve_in_place_shape_guard () =
  let lu = M.create ~rows:2 ~cols:3 in
  (match Lu.solve_in_place ~lu ~pivots:(Array.make 2 0) [| 1.0; 2.0 |] with
  | () -> Alcotest.fail "expected Invalid_argument for non-square factor"
  | exception Invalid_argument _ -> ());
  let lu = M.identity 2 in
  (match Lu.solve_in_place ~lu ~pivots:(Array.make 3 0) [| 1.0; 2.0 |] with
  | () -> Alcotest.fail "expected Invalid_argument for bad pivot length"
  | exception Invalid_argument _ -> ());
  match Lu.solve_in_place ~lu ~pivots:(Array.make 2 0) [| 1.0; 2.0; 3.0 |] with
  | () -> Alcotest.fail "expected Invalid_argument for bad rhs length"
  | exception Invalid_argument _ -> ()

(* Regression (pivot-threshold bugfix): a uniformly tiny but perfectly
   conditioned system used to be misclassified singular by the absolute
   1e-280 threshold; the scale-relative test factors it fine. *)
let test_lu_tiny_scale_solvable () =
  let a = M.of_rows [| [| 1e-290; 0.0 |]; [| 0.0; 2e-290 |] |] in
  let x = Lu.solve a [| 1e-290; 4e-290 |] in
  check_float ~eps:1e-12 "x0" 1.0 x.(0);
  check_float ~eps:1e-12 "x1" 2.0 x.(1)

(* The flip side: residuals of near-total cancellation far above any
   absolute threshold must now be *caught*, with the column scale
   surfaced in the payload. *)
let test_lu_relative_rank_deficiency_caught () =
  let a = M.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 +. 1e-15 |] |] in
  match Lu.factor a with
  | _ -> Alcotest.fail "expected Singular for eps-level rank deficiency"
  | exception Lu.Singular { column; scale } ->
    Alcotest.(check int) "column" 1 column;
    check_float ~eps:1e-9 "scale is the column magnitude" 1.0 scale

(* --- Sparse --- *)

module Sp = Vstat_linalg.Sparse

(* Assemble-and-solve helper over (row, col, value) triplets with
   duplicate-accumulation, mirroring how the engine stamps. *)
let sparse_solve n triplets b =
  let pattern = Array.map (fun (r, c, _) -> (r, c)) triplets in
  let sym = Sp.analyze ~n ~entries:pattern in
  let num = Sp.create_numeric sym in
  let vals = Sp.values num in
  Array.iter
    (fun (r, c, v) ->
      let s = Sp.slot sym ~row:r ~col:c in
      vals.(s) <- vals.(s) +. v)
    triplets;
  Sp.factor num;
  let x = Array.copy b in
  Sp.solve_in_place num x;
  x

let dense_of_triplets n triplets =
  let a = M.create ~rows:n ~cols:n in
  Array.iter (fun (r, c, v) -> M.add_to a r c v) triplets;
  a

let test_sparse_solve_known () =
  let t = [| (0, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) |] in
  let x = sparse_solve 2 t [| 5.0; 10.0 |] in
  check_float ~eps:1e-12 "x0" 1.0 x.(0);
  check_float ~eps:1e-12 "x1" 3.0 x.(1)

(* MNA vsource shape: the branch row has a structurally zero diagonal, so
   the maximum transversal must kick in.
     [ g  1 ] [v]   [0]        v = 2, i = -g v
     [ 1  0 ] [i] = [2]  *)
let test_sparse_zero_diagonal () =
  let g = 1e-3 in
  let t = [| (0, 0, g); (0, 1, 1.0); (1, 0, 1.0) |] in
  let x = sparse_solve 2 t [| 0.0; 2.0 |] in
  check_float ~eps:1e-12 "node voltage" 2.0 x.(0);
  check_float ~eps:1e-15 "branch current" (-.g *. 2.0) x.(1)

let test_sparse_structurally_singular () =
  (* Column 1 has no entries: no transversal exists. *)
  match Sp.analyze ~n:2 ~entries:[| (0, 0); (1, 0) |] with
  | _ -> Alcotest.fail "expected Singular"
  | exception Lu.Singular { column; scale } ->
    Alcotest.(check int) "uncovered column" 1 column;
    check_float "no scale" 0.0 scale

(* Both factorizations name a singular pivot by its original column.
   Column 1 is all zeros; vertex 0 touches every other, so the sparse
   minimum-degree order eliminates column 1 first, at step 0. *)
let test_singular_original_column () =
  let t =
    [|
      (0, 0, 4.0); (0, 1, 0.0); (0, 2, 1.0); (0, 3, 1.0); (1, 0, 1.0);
      (1, 1, 0.0); (2, 0, 1.0); (2, 2, 4.0); (3, 0, 1.0); (3, 3, 4.0);
    |]
  in
  let column f =
    match f () with
    | () -> Alcotest.fail "expected Singular"
    | exception Lu.Singular { column; _ } -> column
  in
  Alcotest.(check int) "dense" 1
    (column (fun () -> ignore (Lu.factor (dense_of_triplets 4 t))));
  Alcotest.(check int) "sparse" 1
    (column (fun () -> ignore (sparse_solve 4 t (Array.make 4 1.0))))

(* Numerically singular values on a healthy pattern must raise the same
   scale-carrying Singular the dense path uses. *)
let test_sparse_numeric_singular () =
  let t = [| (0, 0, 1.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 1.0) |] in
  match sparse_solve 2 t [| 1.0; 1.0 |] with
  | _ -> Alcotest.fail "expected Singular"
  | exception Lu.Singular { scale; _ } ->
    Alcotest.(check bool) "scale positive" true (scale > 0.0)

(* The symbolic phase runs once per topology; refactorization is purely
   numeric.  Counter-based so a regression reintroducing per-solve
   analysis fails loudly. *)
let test_sparse_pattern_reuse () =
  let pattern = [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  let a0 = Sp.symbolic_analyses () in
  let sym = Sp.analyze ~n:2 ~entries:pattern in
  let num = Sp.create_numeric sym in
  for i = 1 to 100 do
    let vals = Sp.values num in
    Array.fill vals 0 (Array.length vals) 0.0;
    let d = Float.of_int i in
    vals.(Sp.slot sym ~row:0 ~col:0) <- 2.0 +. d;
    vals.(Sp.slot sym ~row:0 ~col:1) <- 1.0;
    vals.(Sp.slot sym ~row:1 ~col:0) <- 1.0;
    vals.(Sp.slot sym ~row:1 ~col:1) <- 3.0 +. d;
    Sp.factor num;
    let x = [| 5.0; 10.0 |] in
    Sp.solve_in_place num x;
    let a = dense_of_triplets 2
        [| (0, 0, 2.0 +. d); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0 +. d) |]
    in
    let r = max_abs_diff (M.mul_vec a x) [| 5.0; 10.0 |] in
    if r > 1e-9 then Alcotest.failf "refactorization %d: residual %g" i r
  done;
  Alcotest.(check int) "symbolic analyses" 1 (Sp.symbolic_analyses () - a0)

let test_sparse_cache_shares_symbolic () =
  let entries = [| (0, 0); (1, 1); (0, 1); (1, 0) |] in
  let s1 = Sp.analyze_cached ~n:2 ~entries in
  (* Same pattern presented in a different order and with duplicates. *)
  let s2 = Sp.analyze_cached ~n:2 ~entries:[| (1, 0); (0, 0); (0, 1); (1, 1); (0, 0) |] in
  Alcotest.(check bool) "physically shared" true (s1 == s2)

(* Random MNA-shaped systems: a grounded resistive chain with random extra
   conductances plus a voltage source branch (zero-diagonal row), solved
   sparse and cross-checked against the dense LU oracle. *)
let random_mna_system =
  QCheck.make
    ~print:(fun (nodes, _, _, _) -> Printf.sprintf "nodes=%d" nodes)
    QCheck.Gen.(
      int_range 2 15 >>= fun nodes ->
      list_repeat (nodes - 1) (float_range 0.1 10.0) >>= fun gchain ->
      list_repeat nodes (float_range 0.1 10.0) >>= fun gground ->
      list_repeat (nodes + 1) (float_range (-5.0) 5.0) >>= fun rhs ->
      return (nodes, gchain, gground, rhs))

let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse LU matches dense LU on MNA-shaped systems"
    ~count:200 random_mna_system
    (fun (nodes, gchain, gground, rhs) ->
      let n = nodes + 1 in
      let triplets = ref [] in
      let add r c v = triplets := (r, c, v) :: !triplets in
      List.iteri
        (fun i g ->
          add i i g;
          add (i + 1) (i + 1) g;
          add i (i + 1) (-.g);
          add (i + 1) i (-.g))
        gchain;
      List.iteri (fun i g -> add i i g) gground;
      (* Voltage source from node 0 to ground: branch row nodes+0. *)
      add nodes 0 1.0;
      add 0 nodes 1.0;
      let triplets = Array.of_list (List.rev !triplets) in
      let b = Array.of_list rhs in
      let x_sparse = sparse_solve n triplets b in
      let x_dense = Lu.solve (dense_of_triplets n triplets) b in
      let scale =
        Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 x_dense
      in
      max_abs_diff x_sparse x_dense /. scale < 1e-12)

(* --- Qr --- *)

let test_qr_least_squares_exact () =
  (* Square consistent system behaves like solve. *)
  let a = M.of_rows [| [| 1.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Qr.least_squares a [| 3.0; 1.0 |] in
  check_float "x0" 2.0 x.(0);
  check_float "x1" 1.0 x.(1)

let test_qr_least_squares_overdetermined () =
  (* Fit y = 2x + 1 through noisy-free points: exact recovery. *)
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let a = M.init ~rows:4 ~cols:2 ~f:(fun i j -> if j = 0 then xs.(i) else 1.0) in
  let b = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let c = Qr.least_squares a b in
  check_float ~eps:1e-10 "slope" 2.0 c.(0);
  check_float ~eps:1e-10 "intercept" 1.0 c.(1)

(* --- Nnls --- *)

let test_nnls_unconstrained_interior () =
  (* When the LS solution is positive, NNLS must match it. *)
  let a = M.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Nnls.solve a b in
  check_float ~eps:1e-10 "x0" 1.0 x.(0);
  check_float ~eps:1e-10 "x1" 2.0 x.(1)

let test_nnls_clamps_negative () =
  (* Unconstrained solution has a negative coordinate; NNLS clamps to 0. *)
  let a = M.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let b = [| -1.0; 2.0 |] in
  let x = Nnls.solve a b in
  check_float "clamped" 0.0 x.(0);
  check_float "free" 2.0 x.(1)

let test_nnls_zero_rhs () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let x = Nnls.solve a [| 0.0; 0.0 |] in
  check_float "x0" 0.0 x.(0);
  check_float "x1" 0.0 x.(1)

(* --- Eigen --- *)

let test_eigen_diagonal () =
  let a = M.of_rows [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let { Eigen.values; _ } = Eigen.decompose a in
  check_float "largest" 3.0 values.(0);
  check_float "smallest" 1.0 values.(1)

let test_eigen_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let a = M.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let { Eigen.values; vectors } = Eigen.decompose a in
  check_float ~eps:1e-10 "lambda1" 3.0 values.(0);
  check_float ~eps:1e-10 "lambda2" 1.0 values.(1);
  (* Eigenvector for 3 is (1,1)/sqrt2 up to sign. *)
  let vx = M.get vectors 0 0 and vy = M.get vectors 1 0 in
  check_float ~eps:1e-9 "eigvec ratio" 1.0 (vx /. vy)

let test_eigen_reconstruction () =
  let a =
    M.of_rows [| [| 4.0; 1.0; 0.5 |]; [| 1.0; 3.0; 0.2 |]; [| 0.5; 0.2; 1.0 |] |]
  in
  let { Eigen.values; vectors } = Eigen.decompose a in
  (* A = V diag(values) V^T, entry by entry. *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      let recon = ref 0.0 in
      Array.iteri
        (fun k lambda ->
          recon := !recon +. (M.get vectors i k *. lambda *. M.get vectors j k))
        values;
      Alcotest.(check bool) "reconstruct" true
        (Float.abs (!recon -. M.get a i j) < 1e-9)
    done
  done

(* --- Cmatrix --- *)

module Cm = Vstat_linalg.Cmatrix

let complex_close a b =
  Complex.norm (Complex.sub a b) < 1e-9

(* A real matrix as an AC system at omega = 0. *)
let real a = Cm.combine ~g:a ~c:(M.create ~rows:(M.rows a) ~cols:(M.cols a)) ~omega:0.0

let test_cmatrix_solve_real_system () =
  (* A purely real complex system must agree with the real LU solver. *)
  let a = M.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Cm.solve (real a) [| Complex.{ re = 5.0; im = 0.0 }; Complex.{ re = 10.0; im = 0.0 } |] in
  Alcotest.(check bool) "x0" true (complex_close x.(0) { re = 1.0; im = 0.0 });
  Alcotest.(check bool) "x1" true (complex_close x.(1) { re = 3.0; im = 0.0 })

let test_cmatrix_solve_complex_diag () =
  (* (j) x = 1  ->  x = -j *)
  let g = M.of_rows [| [| 0.0 |] |] in
  let c = M.of_rows [| [| 1.0 |] |] in
  let a = Cm.combine ~g ~c ~omega:1.0 in
  let x = Cm.solve a [| Complex.one |] in
  Alcotest.(check bool) "x = -j" true
    (complex_close x.(0) { re = 0.0; im = -1.0 })

let test_cmatrix_residual () =
  let g = M.of_rows [| [| 1.0; 0.5 |]; [| 0.2; 2.0 |] |] in
  let c = M.of_rows [| [| 0.3; 0.0 |]; [| 0.1; 0.7 |] |] in
  let a = Cm.combine ~g ~c ~omega:3.0 in
  let b = [| Complex.{ re = 1.0; im = -2.0 }; Complex.{ re = 0.5; im = 0.25 } |] in
  let x = Cm.solve a b in
  (* (G + j omega C) x, entry by entry. *)
  Array.iteri
    (fun i bi ->
      let ri = ref Complex.zero in
      Array.iteri
        (fun j xj ->
          let aij = { Complex.re = M.get g i j; im = 3.0 *. M.get c i j } in
          ri := Complex.add !ri (Complex.mul aij xj))
        x;
      Alcotest.(check bool) "residual ~ 0" true (complex_close !ri bi))
    b

let test_cmatrix_singular () =
  let g = M.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let a = real g in
  match Cm.solve a [| Complex.one; Complex.one |] with
  | _ -> Alcotest.fail "expected Singular"
  | exception Cm.Singular _ -> ()

(* --- Vec --- *)

let test_vec_ops () =
  (* Differences relative to max(1, |a_i|, |b_i|). *)
  check_float "small entries: absolute" 0.5
    (Vec.max_rel_diff [| 0.25; 1.0 |] [| -0.25; 1.0 |]);
  check_float "large entries: relative" 0.1
    (Vec.max_rel_diff [| 10.0; 0.0 |] [| 9.0; 0.0 |]);
  check_float "equal" 0.0 (Vec.max_rel_diff [| 3.0; -4.0 |] [| 3.0; -4.0 |])

(* --- qcheck --- *)

let random_dd_system =
  (* Diagonally dominant matrices are well-conditioned: LU must solve them. *)
  QCheck.make
    ~print:(fun (n, _) -> Printf.sprintf "n=%d" n)
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      list_repeat (n * n) (float_range (-1.0) 1.0) >>= fun entries ->
      list_repeat n (float_range (-10.0) 10.0) >>= fun b ->
      return (n, (entries, b)))

let prop_lu_solves_dd =
  QCheck.Test.make ~name:"LU solves diagonally dominant systems" ~count:200
    random_dd_system
    (fun (n, (entries, b)) ->
      let entries = Array.of_list entries in
      let a =
        Vstat_linalg.Matrix.init ~rows:n ~cols:n ~f:(fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. Float.of_int n +. 1.0 else v)
      in
      let b = Array.of_list b in
      let x = Lu.solve a b in
      max_abs_diff (M.mul_vec a x) b < 1e-8)

let prop_lu_in_place_matches_factor =
  QCheck.Test.make ~name:"in-place LU agrees with allocating LU" ~count:200
    random_dd_system
    (fun (n, (entries, b)) ->
      let entries = Array.of_list entries in
      let mk () =
        Vstat_linalg.Matrix.init ~rows:n ~cols:n ~f:(fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. Float.of_int n +. 1.0 else v)
      in
      let b = Array.of_list b in
      let x_ref = Lu.solve (mk ()) b in
      let a = mk () in
      let pivots = Array.make n 0 in
      ignore (Lu.factor_in_place a ~pivots);
      let x = Array.copy b in
      Lu.solve_in_place ~lu:a ~pivots x;
      max_abs_diff x x_ref < 1e-10)

let prop_nnls_nonnegative =
  QCheck.Test.make ~name:"NNLS solutions are non-negative" ~count:200
    random_dd_system
    (fun (n, (entries, b)) ->
      let entries = Array.of_list entries in
      let a =
        Vstat_linalg.Matrix.init ~rows:n ~cols:n ~f:(fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then Float.abs v +. Float.of_int n +. 1.0 else v)
      in
      let b = Array.of_list b in
      let x = Nnls.solve a b in
      Array.for_all (fun v -> v >= 0.0) x)

let prop_qr_matches_lu_on_square =
  QCheck.Test.make ~name:"QR least squares = LU solve on square systems"
    ~count:100 random_dd_system
    (fun (n, (entries, b)) ->
      let entries = Array.of_list entries in
      let a =
        Vstat_linalg.Matrix.init ~rows:n ~cols:n ~f:(fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. Float.of_int n +. 1.0 else v)
      in
      let b = Array.of_list b in
      let x1 = Lu.solve a b in
      let x2 = Qr.least_squares a b in
      max_abs_diff x1 x2 < 1e-7)

let () =
  Alcotest.run "vstat_linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "create" `Quick test_create_zero;
          Alcotest.test_case "init/get/set" `Quick test_init_get_set;
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "ragged rejected" `Quick test_of_rows_ragged;
          Alcotest.test_case "add/sub/scale" `Quick test_add_sub_scale;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve known" `Quick test_lu_solve_known;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "in-place solve" `Quick test_lu_in_place_matches_solve;
          Alcotest.test_case "in-place pivoting" `Quick test_lu_in_place_pivoting;
          Alcotest.test_case "in-place validation" `Quick test_lu_in_place_validates;
          Alcotest.test_case "solve_in_place shape guard" `Quick
            test_lu_solve_in_place_shape_guard;
          Alcotest.test_case "tiny-scale solvable" `Quick
            test_lu_tiny_scale_solvable;
          Alcotest.test_case "relative rank deficiency" `Quick
            test_lu_relative_rank_deficiency_caught;
          QCheck_alcotest.to_alcotest prop_lu_solves_dd;
          QCheck_alcotest.to_alcotest prop_lu_in_place_matches_factor;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "solve known" `Quick test_sparse_solve_known;
          Alcotest.test_case "zero diagonal (vsource row)" `Quick
            test_sparse_zero_diagonal;
          Alcotest.test_case "structurally singular" `Quick
            test_sparse_structurally_singular;
          Alcotest.test_case "numerically singular" `Quick
            test_sparse_numeric_singular;
          Alcotest.test_case "singular pivot names the original column"
            `Quick test_singular_original_column;
          Alcotest.test_case "pattern reuse (100 refactorizations)" `Quick
            test_sparse_pattern_reuse;
          Alcotest.test_case "symbolic cache shares analyses" `Quick
            test_sparse_cache_shares_symbolic;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
        ] );
      ( "qr",
        [
          Alcotest.test_case "square" `Quick test_qr_least_squares_exact;
          Alcotest.test_case "overdetermined" `Quick test_qr_least_squares_overdetermined;
          QCheck_alcotest.to_alcotest prop_qr_matches_lu_on_square;
        ] );
      ( "nnls",
        [
          Alcotest.test_case "interior" `Quick test_nnls_unconstrained_interior;
          Alcotest.test_case "clamps" `Quick test_nnls_clamps_negative;
          Alcotest.test_case "zero rhs" `Quick test_nnls_zero_rhs;
          QCheck_alcotest.to_alcotest prop_nnls_nonnegative;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "known 2x2" `Quick test_eigen_known_2x2;
          Alcotest.test_case "reconstruction" `Quick test_eigen_reconstruction;
        ] );
      ( "cmatrix",
        [
          Alcotest.test_case "real system" `Quick test_cmatrix_solve_real_system;
          Alcotest.test_case "complex diag" `Quick test_cmatrix_solve_complex_diag;
          Alcotest.test_case "residual" `Quick test_cmatrix_residual;
          Alcotest.test_case "singular" `Quick test_cmatrix_singular;
        ] );
      ("vec", [ Alcotest.test_case "ops" `Quick test_vec_ops ]);
    ]
