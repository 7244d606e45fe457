(* Tests for Vstat_opt: Nelder-Mead and scalar search. *)

module Nm = Vstat_opt.Nelder_mead
module S = Vstat_opt.Scalar

let check_float ?(eps = 1e-6) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Nelder-Mead --- *)

let test_nm_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let r = Nm.minimize_restarts ~f ~x0:[| 0.0; 0.0 |] () in
  Alcotest.(check bool) "converged" true r.converged;
  check_float ~eps:1e-4 "x0" 3.0 r.x.(0);
  check_float ~eps:1e-4 "x1" (-1.0) r.x.(1)

let test_nm_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) in
    let b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let r = Nm.minimize_restarts ~restarts:4 ~max_iter:5000 ~f ~x0:[| -1.2; 1.0 |] () in
  check_float ~eps:1e-3 "rosenbrock x" 1.0 r.x.(0);
  check_float ~eps:1e-3 "rosenbrock y" 1.0 r.x.(1)

let test_nm_1d () =
  (* |x - c| is non-smooth at the optimum; restarts recover from simplex
     stagnation on the kink. *)
  let f x = Float.abs (x.(0) -. 0.25) in
  let r = Nm.minimize_restarts ~restarts:5 ~f ~x0:[| 10.0 |] () in
  check_float ~eps:1e-3 "1d" 0.25 r.x.(0)

let test_nm_empty_rejected () =
  match Nm.minimize_restarts ~f:(fun _ -> 0.0) ~x0:[||] () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_nm_iterations_bounded () =
  let f x = x.(0) *. x.(0) in
  let r = Nm.minimize_restarts ~max_iter:5 ~f ~x0:[| 1.0 |] () in
  Alcotest.(check bool) "stopped at cap" true (r.iterations <= 5)

(* --- Scalar --- *)

let test_bisect_root () =
  let root = S.bisect ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  check_float ~eps:1e-9 "sqrt 2" (sqrt 2.0) root

let test_bisect_linear () =
  let root = S.bisect ~f:(fun x -> x -. 0.3) ~lo:(-1.0) ~hi:1.0 () in
  check_float ~eps:1e-9 "linear root" 0.3 root

let test_bisect_requires_bracket () =
  match S.bisect ~f:(fun x -> x +. 10.0) ~lo:0.0 ~hi:1.0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_bisect_predicate () =
  let boundary = S.bisect_predicate ~f:(fun x -> x > 0.7) ~lo:0.0 ~hi:1.0 () in
  check_float ~eps:1e-9 "predicate boundary" 0.7 boundary

let test_bisect_predicate_requires_transition () =
  match S.bisect_predicate ~f:(fun _ -> true) ~lo:0.0 ~hi:1.0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- qcheck --- *)

let prop_nm_finds_shifted_quadratic =
  (* Named as alcotest has always printed it at 80 columns (it used to be
     truncated there), so the case keeps one name across test logs. *)
  QCheck.Test.make ~name:"NM minimizes shifted quadrat" ~count:50
    QCheck.(pair (float_range (-20.0) 20.0) (float_range (-20.0) 20.0))
    (fun (a, b) ->
      let f x = ((x.(0) -. a) ** 2.0) +. (2.0 *. ((x.(1) -. b) ** 2.0)) in
      let r = Nm.minimize_restarts ~restarts:3 ~f ~x0:[| 0.0; 0.0 |] () in
      Float.abs (r.x.(0) -. a) < 1e-2 && Float.abs (r.x.(1) -. b) < 1e-2)

let prop_bisect_finds_root_of_monotone =
  QCheck.Test.make ~name:"bisect solves monotone cubics" ~count:100
    QCheck.(float_range (-3.0) 3.0)
    (fun c ->
      let f x = (x ** 3.0) +. x -. c in
      (* f is strictly increasing; root within +-4 for |c| <= 3. *)
      let root = S.bisect ~f ~lo:(-4.0) ~hi:4.0 () in
      Float.abs (f root) < 1e-6)

let () =
  Alcotest.run "vstat_opt"
    [
      ( "nelder-mead",
        [
          Alcotest.test_case "quadratic" `Quick test_nm_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nm_rosenbrock;
          Alcotest.test_case "1d" `Quick test_nm_1d;
          Alcotest.test_case "empty rejected" `Quick test_nm_empty_rejected;
          Alcotest.test_case "iteration cap" `Quick test_nm_iterations_bounded;
          QCheck_alcotest.to_alcotest prop_nm_finds_shifted_quadratic;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "bisect root" `Quick test_bisect_root;
          Alcotest.test_case "bisect linear" `Quick test_bisect_linear;
          Alcotest.test_case "bisect bracket" `Quick test_bisect_requires_bracket;
          Alcotest.test_case "predicate" `Quick test_bisect_predicate;
          Alcotest.test_case "predicate transition" `Quick test_bisect_predicate_requires_transition;
          QCheck_alcotest.to_alcotest prop_bisect_finds_root_of_monotone;
        ] );
    ]
