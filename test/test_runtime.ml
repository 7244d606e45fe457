(* Tests for the parallel Monte Carlo runtime: substream determinism,
   worker-count invariance (the bit-identity contract), fault capture and
   failure budgets, and the mergeable streaming accumulators. *)

module Rng = Vstat_util.Rng
module Rt = Vstat_runtime.Runtime
module Accum = Vstat_runtime.Accum
module D = Vstat_stats.Descriptive
module Mc = Vstat_core.Mc_device
module Vss = Vstat_core.Vs_statistical

let vdd = Vstat_device.Cards.vdd_nominal

let draws k rng = Array.init k (fun _ -> Rng.bits64 rng)

(* --- Rng.substream --- *)

let test_substream_reproducible () =
  let a = draws 32 (Rng.substream ~seed:7 ~index:5) in
  let b = draws 32 (Rng.substream ~seed:7 ~index:5) in
  Alcotest.(check bool) "identical streams" true (a = b)

let test_substream_distinct () =
  let a = draws 8 (Rng.substream ~seed:7 ~index:0) in
  let b = draws 8 (Rng.substream ~seed:7 ~index:1) in
  let c = draws 8 (Rng.substream ~seed:8 ~index:0) in
  Alcotest.(check bool) "distinct across indices" true (a <> b);
  Alcotest.(check bool) "distinct across seeds" true (a <> c)

let test_substream_negative_index () =
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.substream: index must be >= 0") (fun () ->
      ignore (Rng.substream ~seed:1 ~index:(-1)))

let prop_substream_reproducible =
  QCheck.Test.make ~name:"substream is a pure function of (seed, index)"
    ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (seed, index) ->
      draws 8 (Rng.substream ~seed ~index)
      = draws 8 (Rng.substream ~seed ~index))

let prop_substream_distinct_indices =
  QCheck.Test.make ~name:"substreams at distinct indices differ" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, i, dj) ->
      let j = i + dj + 1 in
      draws 8 (Rng.substream ~seed ~index:i)
      <> draws 8 (Rng.substream ~seed ~index:j))

(* --- the runtime core --- *)

(* A full run through the core: every index scheduled and none stopped, so
   every slot is filled. *)
let map ?jobs ?on_progress ?retry ~n ~f () =
  let p =
    Rt.map_subset_attempt_samples ?jobs ?on_progress ?retry ~n
      ~indices:(Array.init n Fun.id) ~f ()
  in
  {
    Rt.cells = Array.map Option.get p.Rt.slots;
    attempts = p.Rt.slot_attempts;
    stats = p.Rt.partial_stats;
  }

let test_map_identity () =
  List.iter
    (fun jobs ->
      let r = map ~jobs ~n:17 ~f:(fun ~attempt:_ i -> i * i) () in
      Alcotest.(check int) "all ok" 17 (Rt.ok_count r);
      Alcotest.(check bool) "index-stable cells" true
        (Array.to_list r.cells
        = List.init 17 (fun i -> Ok (i * i))))
    [ 1; 3 ]

let test_map_empty () =
  let r = map ~jobs:4 ~n:0 ~f:(fun ~attempt:_ i -> i) () in
  Alcotest.(check int) "no samples" 0 (Array.length r.cells)

(* Both public entry points validate [n] under their own names. *)
let test_negative_n () =
  Alcotest.check_raises "core"
    (Invalid_argument "Runtime.map_subset_attempt_samples: n must be >= 0")
    (fun () ->
      ignore
        (Rt.map_subset_attempt_samples ~n:(-1) ~indices:[||]
           ~f:(fun ~attempt:_ i -> i)
           ()));
  Alcotest.check_raises "map_rng_samples"
    (Invalid_argument "Runtime.map_rng_samples: n must be >= 0") (fun () ->
      ignore
        (Rt.map_rng_samples ~rng:(Rng.create ~seed:1) ~n:(-1) ~f:Rng.gaussian
           ()))

let prop_map_rng_jobs_invariant =
  QCheck.Test.make ~name:"map_rng_samples is independent of jobs" ~count:25
    QCheck.(pair (int_range 1 40) (int_range 2 5))
    (fun (n, jobs) ->
      let f rng = Rng.gaussian rng in
      let run jobs =
        Rt.values (Rt.map_rng_samples ~jobs ~rng:(Rng.create ~seed:5) ~n ~f ())
      in
      run 1 = run jobs)

exception Boom of int

let test_fault_capture () =
  let r =
    map ~jobs:2 ~n:20
      ~f:(fun ~attempt:_ i -> if i mod 5 = 0 then raise (Boom i) else i)
      ()
  in
  Alcotest.(check int) "failed count" 4 (Rt.failed_count r);
  Alcotest.(check int) "ok count" 16 (Rt.ok_count r);
  Alcotest.(check (list int)) "failure indices in order" [ 0; 5; 10; 15 ]
    (List.map (fun f -> f.Rt.index) (Rt.failures r));
  (match Rt.failure_census r with
  | [ (_, 4) ] -> ()
  | census ->
    Alcotest.failf "expected one constructor with count 4, got %d entries"
      (List.length census));
  Alcotest.(check bool) "values keep index order, skip failures" true
    (Rt.values r
    = Array.of_list (List.filter (fun i -> i mod 5 <> 0) (List.init 20 Fun.id)))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_budget () =
  let r =
    map ~jobs:1 ~n:10
      ~f:(fun ~attempt:_ i -> if i < 3 then failwith "sample blew up" else i)
      ()
  in
  Rt.check_budget ~label:"t" ~max_failure_frac:0.5 r;
  match Rt.check_budget ~label:"t" ~max_failure_frac:0.1 r with
  | () -> Alcotest.fail "over budget must raise Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "message has failed/total counts" true
      (contains ~sub:"3/10" msg);
    Alcotest.(check bool) "message has the exception census" true
      (contains ~sub:"Failure:3" msg)

let test_reraise_first_failure () =
  let r =
    map ~jobs:3 ~n:12
      ~f:(fun ~attempt:_ i -> if i >= 7 then raise (Boom i) else i)
      ()
  in
  Alcotest.check_raises "lowest-index exception rethrown" (Boom 7) (fun () ->
      Rt.reraise_first_failure r)

let test_stats_and_progress () =
  let last = ref 0 in
  let r =
    map ~jobs:2 ~n:30
      ~on_progress:(fun ~completed ~n:_ -> last := Int.max !last completed)
      ~f:(fun ~attempt:_ i -> i)
      ()
  in
  Alcotest.(check int) "progress saw the last sample" 30 !last;
  Alcotest.(check int) "per-worker tallies sum to n" 30
    (Array.fold_left ( + ) 0 r.stats.per_worker);
  Alcotest.(check int) "worker slots" 2 (Array.length r.stats.per_worker);
  Alcotest.(check bool) "wall time measured" true (r.stats.wall_s >= 0.0)

(* --- resilience: empty runs, census ordering, the retry ladder --- *)

let test_budget_empty_run () =
  (* n = 0 must never trip the budget, even at a zero failure allowance
     (0 * frac = 0 used to compare 0 > 0.0 — the guard keeps it silent). *)
  let r = map ~jobs:2 ~n:0 ~f:(fun ~attempt:_ i -> i) () in
  Rt.check_budget ~label:"empty" ~max_failure_frac:0.0 r;
  Alcotest.(check int) "no failures" 0 (Rt.failed_count r);
  Alcotest.(check (list (pair string int))) "empty census" []
    (Rt.failure_census r)

let test_census_ordering () =
  (* Two failure species with different frequencies: the census must come
     back most-frequent-first with exact counts. *)
  let r =
    map ~jobs:3 ~n:12
      ~f:(fun ~attempt:_ i ->
        if i < 6 then failwith "common"
        else if i < 8 then raise (Boom i)
        else i)
      ()
  in
  (match Rt.failure_census r with
  | [ (a, 6); (b, 2) ] ->
    Alcotest.(check bool) "categories distinct" true (a <> b)
  | census ->
    Alcotest.failf "unexpected census: %s" (Rt.census_to_string census));
  let s = Rt.census_to_string (Rt.failure_census r) in
  Alcotest.(check bool) "census string lists both" true
    (contains ~sub:":6" s && contains ~sub:":2" s)

let test_retry_policy_validation () =
  Alcotest.(check bool) "retry 1 accepted" true
    ((Rt.retry 1).Rt.max_attempts = 1);
  match Rt.retry 0 with
  | _ -> Alcotest.fail "retry 0 accepted"
  | exception Invalid_argument _ -> ()

let test_retry_ladder_recovers () =
  (* Samples 3 and 7 fail on attempts 0 and 1 and succeed on attempt 2;
     sample 5 always fails.  With 3 attempts the first two recover and the
     history of the dead sample records every attempt. *)
  let flaky ~attempt i =
    if i = 5 then failwith "always dead"
    else if (i = 3 || i = 7) && attempt < 2 then raise (Boom i)
    else i * 10
  in
  let r =
    map ~jobs:2 ~retry:(Rt.retry 3) ~n:10
      ~f:(fun ~attempt i -> flaky ~attempt i)
      ()
  in
  Alcotest.(check int) "one sample dead" 1 (Rt.failed_count r);
  Alcotest.(check int) "retried" 3 r.Rt.stats.Rt.retried_samples;
  Alcotest.(check int) "recovered" 2 r.Rt.stats.Rt.recovered_samples;
  Alcotest.(check (list int)) "attempts per sample"
    [ 1; 1; 1; 3; 1; 3; 1; 3; 1; 1 ]
    (Array.to_list r.Rt.attempts);
  (match Rt.failures r with
  | [ f ] ->
    Alcotest.(check int) "dead index" 5 f.Rt.index;
    Alcotest.(check int) "two earlier attempts recorded" 2
      (List.length f.Rt.history);
    List.iteri
      (fun k a ->
        Alcotest.(check int) "history attempt number" k a.Rt.attempt)
      f.Rt.history
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  (* Recovered values land in the same cells as a clean run's would. *)
  Alcotest.(check bool) "values ordered, dead sample skipped" true
    (Rt.values r
    = Array.of_list
        (List.filter_map
           (fun i -> if i = 5 then None else Some (i * 10))
           (List.init 10 Fun.id)))

let test_retry_respects_retryable () =
  let calls = Atomic.make 0 in
  let r =
    map ~jobs:1
      ~retry:
        (Rt.retry ~retryable:(function Boom _ -> false | _ -> true) 5)
      ~n:3
      ~f:(fun ~attempt:_ i ->
        if i = 1 then begin
          Atomic.incr calls;
          raise (Boom i)
        end
        else i)
      ()
  in
  Alcotest.(check int) "non-retryable tried exactly once" 1 (Atomic.get calls);
  Alcotest.(check int) "still recorded as failed" 1 (Rt.failed_count r)

let test_retry_rng_value_neutral () =
  (* Every attempt re-reads the sample's substream (base seed drawn once
     off the run's RNG, as map_rng_samples does), so a sample that succeeds
     on a retry must produce the value a never-failing run produces. *)
  let n = 16 in
  let clean =
    Rt.values
      (Rt.map_rng_samples ~jobs:1 ~rng:(Rng.create ~seed:23) ~n ~f:(draws 4) ())
  in
  let base = Int64.to_int (Rng.bits64 (Rng.create ~seed:23)) in
  let flaky jobs =
    map ~jobs ~retry:(Rt.retry 2) ~n
      ~f:(fun ~attempt i ->
        let v = draws 4 (Rng.substream ~seed:base ~index:i) in
        if i mod 3 = 0 && attempt = 0 then failwith "flaky";
        v)
      ()
  in
  let r1 = flaky 1 in
  Alcotest.(check int) "all recovered" 0 (Rt.failed_count r1);
  Alcotest.(check int) "recovered count" 6 r1.Rt.stats.Rt.recovered_samples;
  Alcotest.(check bool) "recovered values = clean values" true
    (Rt.values r1 = clean);
  (* And the whole recovered run is jobs-invariant. *)
  let r4 = flaky 4 in
  Alcotest.(check bool) "values jobs-invariant under retry" true
    (Rt.values r1 = Rt.values r4);
  Alcotest.(check bool) "attempt counts jobs-invariant" true
    (r1.Rt.attempts = r4.Rt.attempts)

(* --- jobs-count invariance end to end (Mc_device) --- *)

let test_mc_device_jobs_invariant () =
  let run jobs =
    Mc.of_vs Vss.seed_nmos ~jobs ~rng:(Rng.create ~seed:11) ~n:64 ~w_nm:600.0
      ~l_nm:40.0 ~vdd
  in
  let s1 = run 1 and s4 = run 4 in
  Alcotest.(check bool) "idsat bit-identical" true (s1.idsat = s4.idsat);
  Alcotest.(check bool) "log10_ioff bit-identical" true
    (s1.log10_ioff = s4.log10_ioff);
  Alcotest.(check bool) "cgg bit-identical" true (s1.cgg = s4.cgg)

(* --- jobs-count invariance end to end (full circuit transient MC) --- *)

let test_circuit_mc_jobs_invariant () =
  (* Each sample perturbs device widths from its own substream, builds an
     FO3 inverter harness, and runs DC + transient through the engine.  The
     measured delays must be bit-identical for any worker count. *)
  let tech_of_rng rng =
    let base = Vstat_cells.Celltech.nominal_vs_seed ~vdd () in
    let jit w = w *. (1.0 +. (0.03 *. Rng.gaussian rng)) in
    {
      base with
      Vstat_cells.Celltech.label = "vs-jitter";
      nmos = (fun ~w_nm -> base.Vstat_cells.Celltech.nmos ~w_nm:(jit w_nm));
      pmos = (fun ~w_nm -> base.Vstat_cells.Celltech.pmos ~w_nm:(jit w_nm));
    }
  in
  let measure tech =
    let s = Vstat_cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
    let r = Vstat_cells.Inverter.measure s in
    (r.Vstat_cells.Inverter.tphl, r.Vstat_cells.Inverter.tplh)
  in
  let run jobs =
    Rt.values
      (Rt.map_rng_samples ~jobs ~rng:(Rng.create ~seed:17) ~n:8
         ~f:(fun rng -> measure (tech_of_rng rng))
         ())
  in
  let s1 = run 1 and s4 = run 4 in
  Alcotest.(check int) "all samples measured" 8 (Array.length s1);
  Alcotest.(check bool) "delays bit-identical across jobs" true (s1 = s4)

(* --- Accum --- *)

let close ?(eps = 1e-9) name a b =
  Alcotest.(check bool) name true
    (Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))

let test_accum_matches_descriptive () =
  let rng = Rng.create ~seed:3 in
  let xs = Array.init 257 (fun _ -> Rng.gaussian_scaled rng ~mean:5.0 ~sigma:2.0) in
  let a = Accum.of_array xs in
  Alcotest.(check int) "count" 257 (Accum.count a);
  close ~eps:1e-12 "mean" (D.mean xs) (Accum.mean a);
  close ~eps:1e-12 "std" (D.std xs) (Accum.std a)

(* --- default jobs policy (mutates process state: keep last) --- *)

let test_default_jobs_policy () =
  Alcotest.(check bool) "recommended default >= 1" true (Rt.default_jobs () >= 1);
  Rt.set_default_jobs 3;
  Alcotest.(check int) "forced default wins" 3 (Rt.default_jobs ());
  Alcotest.check_raises "jobs >= 1 enforced"
    (Invalid_argument "Runtime.set_default_jobs: jobs must be >= 1") (fun () ->
      Rt.set_default_jobs 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "vstat_runtime"
    [
      ( "substream",
        [
          Alcotest.test_case "reproducible" `Quick test_substream_reproducible;
          Alcotest.test_case "distinct" `Quick test_substream_distinct;
          Alcotest.test_case "negative index" `Quick
            test_substream_negative_index;
          q prop_substream_reproducible;
          q prop_substream_distinct_indices;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "map identity" `Quick test_map_identity;
          Alcotest.test_case "map empty" `Quick test_map_empty;
          Alcotest.test_case "negative n names the entry point" `Quick
            test_negative_n;
          Alcotest.test_case "fault capture" `Quick test_fault_capture;
          Alcotest.test_case "failure budget" `Quick test_budget;
          Alcotest.test_case "reraise first" `Quick test_reraise_first_failure;
          Alcotest.test_case "stats + progress" `Quick test_stats_and_progress;
          Alcotest.test_case "mc_device jobs-invariant" `Quick
            test_mc_device_jobs_invariant;
          Alcotest.test_case "circuit mc jobs-invariant" `Quick
            test_circuit_mc_jobs_invariant;
          q prop_map_rng_jobs_invariant;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "empty-run budget" `Quick test_budget_empty_run;
          Alcotest.test_case "census ordering" `Quick test_census_ordering;
          Alcotest.test_case "retry validation" `Quick
            test_retry_policy_validation;
          Alcotest.test_case "retry ladder recovers" `Quick
            test_retry_ladder_recovers;
          Alcotest.test_case "retryable predicate" `Quick
            test_retry_respects_retryable;
          Alcotest.test_case "retry value-neutral + jobs-invariant" `Quick
            test_retry_rng_value_neutral;
        ] );
      ( "accum",
        [
          Alcotest.test_case "matches descriptive" `Quick
            test_accum_matches_descriptive;
        ] );
      ( "policy",
        [ Alcotest.test_case "default jobs" `Quick test_default_jobs_policy ] );
    ]
