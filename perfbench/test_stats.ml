(* Unit tests for the benchmark's order statistics.  Expected quartiles
   are what Python's statistics.quantiles(xs, n=4) returns. *)

let failures = ref 0

let check name ~expected got =
  if Float.abs (got -. expected) > 1e-12 *. Float.max 1.0 (Float.abs expected)
  then begin
    incr failures;
    Printf.printf "FAIL %s: expected %.17g, got %.17g\n" name expected got
  end

let raises name f =
  match f () with
  | _ ->
    incr failures;
    Printf.printf "FAIL %s: expected Invalid_argument\n" name
  | exception Invalid_argument _ -> ()

let () =
  let ten = Array.init 10 (fun i -> Float.of_int (10 - i)) in
  (* nearest rank: the smallest value with at least p% at or below it *)
  check "p50 of 1..10" ~expected:5.0 (Stats.percentile ~p:50.0 ten);
  check "p95 of 1..10" ~expected:10.0 (Stats.percentile ~p:95.0 ten);
  check "p90 of 1..10" ~expected:9.0 (Stats.percentile ~p:90.0 ten);
  check "p0 of 1..10" ~expected:1.0 (Stats.percentile ~p:0.0 ten);
  check "p100 of 1..10" ~expected:10.0 (Stats.percentile ~p:100.0 ten);
  check "p99 of 240 values" ~expected:238.0
    (Stats.percentile ~p:99.0 (Array.init 240 (fun i -> Float.of_int (i + 1))));
  check "p50 of one value" ~expected:7.0 (Stats.percentile ~p:50.0 [| 7.0 |]);
  raises "p101" (fun () -> Stats.percentile ~p:101.0 ten);
  raises "percentile of nothing" (fun () -> Stats.percentile ~p:50.0 [||]);
  check "median, even count" ~expected:5.5 (Stats.median ten);
  check "median, odd count" ~expected:2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check "median ignores order" ~expected:2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  raises "median of nothing" (fun () -> Stats.median [||]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles ten in
  check "q1 of 1..10" ~expected:2.75 q1;
  check "q2 of 1..10" ~expected:5.5 q2;
  check "q3 of 1..10" ~expected:8.25 q3;
  (* statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0] *)
  let q1, q2, q3 = Stats.quartiles [| 16.0; 1.0; 8.0; 2.0; 4.0 |] in
  check "q1 of 5 values" ~expected:1.5 q1;
  check "q2 of 5 values" ~expected:4.0 q2;
  check "q3 of 5 values" ~expected:12.0 q3;
  (* statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: extrapolated *)
  let q1, _, q3 = Stats.quartiles [| 3.0; 1.0 |] in
  check "q1 of 2 values" ~expected:0.5 q1;
  check "q3 of 2 values" ~expected:3.5 q3;
  check "iqr of 1..10" ~expected:5.5 (Stats.iqr ten);
  check "iqr of a constant" ~expected:0.0 (Stats.iqr (Array.make 6 3.0));
  check "mean" ~expected:5.5 (Stats.mean ten);
  if !failures > 0 then exit 1;
  print_endline "test_stats: all checks passed"
