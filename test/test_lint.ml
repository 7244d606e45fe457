(* Golden tests for the vstat_lint static-analysis pass (lib/lint), plus
   the dynamic zero-allocation gate over the circuit engine's transient
   inner loop.

   The fixture corpus under lint_fixtures/ contains, per rule family, both
   positive cases (which must be reported at exactly the pinned file:line)
   and negatives (sorted censuses, explicit comparators, [@vstat.allow]
   suppressions, the [@@@vstat.allow] file floor) which must stay silent.
   An exact set comparison covers both directions: a missed violation and
   a false positive both fail the test. *)

module L = Vstat_lint_core
module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine

let fixture_root = "lint_fixtures"

(* `dune runtest` runs with the test directory as cwd; a bare
   `dune exec test/test_lint.exe` runs from the project root.  Normalize so
   diagnostic paths (and hence the golden strings) agree. *)
let () =
  if
    (not (Sys.file_exists fixture_root))
    && Sys.file_exists (Filename.concat "test" fixture_root)
  then Sys.chdir "test"

let render (d : L.Diagnostic.t) =
  Printf.sprintf "%s:%d %s" d.L.Diagnostic.file d.L.Diagnostic.line
    d.L.Diagnostic.rule

(* Every finding over the whole corpus and its typed trees, empty
   allowlist. *)
let scan ?(allow = L.Allowlist.empty) ?excludes paths =
  L.Engine.run ?excludes ~allow paths

let corpus = lazy (scan [ fixture_root ])

let findings rules =
  List.filter
    (fun d -> List.mem d.L.Diagnostic.rule rules)
    (snd (Lazy.force corpus))

let f = ( ^ ) "test/lint_fixtures/"

(* Sorted by (file, line): the engine's report order.  Paths are the
   typed trees' source paths, relative to the build root. *)
let expected_golden =
  List.map f
    [
      "deep/fx_taint_c.ml:4 determinism-random";
      "fx_allowfile.ml:5 float-compare";
      "fx_allowfile.ml:7 float-compare";
      "fx_determinism.ml:5 determinism-random";
      "fx_determinism.ml:7 determinism-random";
      "fx_determinism.ml:9 determinism-wallclock";
      "fx_determinism.ml:11 determinism-wallclock";
      "fx_determinism.ml:13 determinism-hashtbl-order";
      "fx_determinism.ml:15 determinism-hashtbl-order";
      "fx_determinism.ml:26 determinism-wallclock";
      "fx_file_floor.ml:4 float-compare";
      "fx_float_safety.ml:4 float-compare";
      "fx_float_safety.ml:6 float-compare";
      "fx_float_safety.ml:8 float-compare";
      "fx_float_safety.ml:10 float-compare";
      "fx_float_safety.ml:12 float-compare";
      "fx_float_safety.ml:25 float-compare";
      "fx_float_safety.ml:27 float-compare";
      "fx_float_safety.ml:29 float-compare";
      "fx_float_safety.ml:37 float-compare";
      "fx_float_safety.ml:41 float-compare";
      "fx_hot.ml:3 hot-path";
      "fx_hot.ml:5 hot-path";
      "fx_hot.ml:7 hot-path";
      "fx_hot.ml:9 hot-path";
      "fx_hot.ml:12 hot-path";
      "fx_hot_array.ml:3 hot-path";
      "fx_hot_array.ml:5 hot-path";
      "fx_hot_array.ml:7 hot-path";
      "fx_hot_array.ml:9 hot-path";
      "fx_weighted_hot.ml:4 hot-path";
      "fx_weighted_hot.ml:6 hot-path";
      "fx_weighted_hot.ml:8 hot-path";
      "fx_weighted_hot.ml:11 hot-path";
      "lib/circuit/fx_exn.ml:5 exn-discipline";
      "lib/circuit/fx_exn.ml:7 exn-discipline";
      "lib/circuit/fx_exn.ml:9 exn-discipline";
      "lib/linalg/fx_failwith.ml:6 exn-discipline";
    ]

let per_file_rules =
  [
    "determinism-random"; "determinism-hashtbl-order"; "determinism-wallclock";
    "float-compare"; "exn-discipline"; "hot-path";
  ]

let test_golden () =
  Alcotest.(check int) "fixture files scanned" 20 (fst (Lazy.force corpus));
  Alcotest.(check (list string))
    "golden diagnostics" expected_golden
    (List.map render (findings per_file_rules))

(* A line-pinned lint.allow entry sanctions exactly one of the two
   violations in fx_allowfile.ml. *)
let test_allow_line_pinned () =
  let allow =
    L.Allowlist.of_string ~file:"<synthetic>"
      "# synthetic allowlist for the test\n\
       float-compare:lint_fixtures/fx_allowfile.ml:5\n"
  in
  Alcotest.(check (list string))
    "only the unpinned line remains"
    [ f "fx_allowfile.ml:7 float-compare" ]
    (List.map render
       (snd (scan ~allow [ "lint_fixtures/fx_allowfile.ml" ])))

(* A whole-file entry matches by trailing '/'-separated components, so the
   short form "fx_allowfile.ml" must cover the source path. *)
let test_allow_whole_file () =
  let allow =
    L.Allowlist.of_string ~file:"<synthetic>" "float-compare:fx_allowfile.ml\n"
  in
  Alcotest.(check (list string)) "whole file sanctioned" []
    (List.map render
       (snd (scan ~allow [ "lint_fixtures/fx_allowfile.ml" ])))

(* Every rule id exercised by the fixtures must exist in the registry that
   --list-rules and DESIGN.md document. *)
let test_rules_registry () =
  let ids = List.map (fun r -> r.L.Rules.id) L.Rules.all in
  List.iter
    (fun must ->
      Alcotest.(check bool) (must ^ " registered") true (List.mem must ids))
    (per_file_rules
    @ [ "determinism-taint"; "domain-safety"; "unused-export"; "unused-optional" ])

(* --- the cross-module rules ---------------------------------------------- *)

let render_trace (d : L.Diagnostic.t) =
  render d
  ^
  match d.L.Diagnostic.trace with
  | [] -> ""
  | steps -> " | " ^ String.concat " \xe2\x86\x92 " steps

let deep_findings () = findings [ "determinism-taint"; "domain-safety" ]

(* The two interprocedural rules over the typed trees of the
   lint_fixtures/deep library, pinned exactly.  determinism-taint: the
   3-module chain down to the Random.float, reached directly, through a
   [let module] alias and through an [open].  domain-safety: the
   unguarded access with the full path from the Domain.spawn root, and
   the mutable-record global whose field name is immutable in another
   type of the same file.  The sanctioned entry, the Mutex.protect'd
   access, the immutable record and the file-floored fixture must all
   stay silent. *)
let test_deep_golden () =
  let f = ( ^ ) "test/lint_fixtures/deep/" in
  let arrow = " \xe2\x86\x92 " in
  let taint line call =
    Printf.sprintf
      "%s:%d determinism-taint | %s:%d%s%s:3%sRandom.float (%s:4)"
      (f "fx_taint_a.ml") line (f "fx_taint_a.ml") call arrow
      (f "fx_taint_b.ml") arrow (f "fx_taint_c.ml")
  in
  Alcotest.(check (list string))
    "deep findings with full call paths"
    [
      String.concat ""
        [ f "fx_domain_record.ml:12 domain-safety | ";
          f "fx_domain_record.ml:11 (domain root 'run')"; arrow;
          f "fx_domain_record.ml:12" ];
      String.concat ""
        [ f "fx_domain_state.ml:8 domain-safety | ";
          f "fx_domain_root.ml:4 (domain root 'run')"; arrow;
          f "fx_domain_root.ml:5"; arrow; f "fx_domain_mid.ml:3"; arrow;
          f "fx_domain_state.ml:8" ];
      taint 6 6;
      taint 14 16;
      taint 18 20;
    ]
    (List.map render_trace (deep_findings ()))

(* The unused rules over the typed trees of the lint_fixtures/unused
   libraries.  unused-export: of Api's values, [used] has a direct user,
   [via_alias] a user through a module alias, [Whole.whole] an include,
   and [granted] an inline grant, so [unused] is the one finding.
   unused-optional: [f]'s [?used] is written, [forwarded]'s is passed on
   as [?used], and [unapplied] is referenced without an application, so
   [f]'s [?unused] is the one finding.  [test_only]'s one user sits under
   unused/test/, so it is a finding only when the scan excludes test/, as
   the second @lint scan does. *)
let test_unused () =
  let dir = Filename.concat fixture_root "unused" in
  let hits ?excludes paths =
    List.map render
      (List.filter
         (fun d ->
           List.mem d.L.Diagnostic.rule [ "unused-export"; "unused-optional" ])
         (snd (scan ?excludes paths)))
  in
  let expected =
    [
      "test/lint_fixtures/unused/api/api.mli:2 unused-export";
      "test/lint_fixtures/unused/api/api.mli:9 unused-optional";
    ]
  in
  Alcotest.(check (list string))
    "exactly the unused val and label" expected (hits [ dir ]);
  (* Api's users sit outside this scan, but the uses come from the whole
     program under the working directory. *)
  Alcotest.(check (list string))
    "a scan without the user still sees its uses" expected
    (hits [ Filename.concat dir "api" ]);
  Alcotest.(check (list string))
    "a test is not a user when test/ is excluded"
    (expected @ [ "test/lint_fixtures/unused/api/api.mli:12 unused-export" ])
    (hits ~excludes:[ "_build"; ".git"; "test" ] [ dir ])

(* [guarded_bump] is [counter_bump] with its access inside Mutex.protect,
   and each has its own domain root: deleting the guard is exactly the
   difference between no finding and one at the access, with a witness
   path from the Domain.spawn root. *)
let test_guard_deletion () =
  let from_root root =
    List.filter
      (fun d ->
        d.L.Diagnostic.rule = "domain-safety"
        && List.mem
             (f "deep/fx_domain_root.ml:" ^ root)
             d.L.Diagnostic.trace)
      (deep_findings ())
  in
  Alcotest.(check int) "guarded access: silent" 0
    (List.length (from_root "10 (domain root 'run_guarded')"));
  match from_root "4 (domain root 'run')" with
  | [ d ] ->
    Alcotest.(check string) "unguarded twin lands at the access"
      (f "deep/fx_domain_state.ml:8 domain-safety")
      (render d);
    Alcotest.(check int) "trace walks root -> access" 4
      (List.length d.L.Diagnostic.trace)
  | ds ->
    Alcotest.failf "expected exactly one domain-safety finding, got %d"
      (List.length ds)

(* --- report rendering ---------------------------------------------------- *)

(* All JSON funnels through Report.json_string; a pathological message
   (quotes, backslashes, newlines, raw control bytes) must render to
   exactly this valid document. *)
let test_json_escaping () =
  let d =
    L.Diagnostic.make ~rule:"r\"1" ~file:"a\\b.ml" ~line:1 ~col:2
      "quote \" backslash \\ newline \n tab \t cr \r ctl \x01 done"
  in
  Alcotest.(check string) "pathological message"
    "{\"rule\":\"r\\\"1\",\"file\":\"a\\\\b.ml\",\"line\":1,\"col\":2,\"message\":\"quote \\\" backslash \\\\ newline \\n tab \\t cr \\r ctl \\u0001 done\"}"
    (L.Report.diagnostic_json d);
  let with_path =
    L.Diagnostic.make
      ~trace:[ "x.ml:1"; "Random.float (y.ml:2)" ]
      ~rule:"determinism-taint" ~file:"x.ml" ~line:1 ~col:0 "m"
  in
  Alcotest.(check string) "trace renders as a path array"
    "{\"rule\":\"determinism-taint\",\"file\":\"x.ml\",\"line\":1,\"col\":0,\"message\":\"m\",\"path\":[\"x.ml:1\",\"Random.float (y.ml:2)\"]}"
    (L.Report.diagnostic_json with_path)

(* --- the dynamic allocation gate --------------------------------------- *)

(* The [@vstat.hot] lint rules are the static half of the engine's
   zero-allocation contract; this test is the dynamic half.  It integrates
   a source-free RC circuit (independent sources are the documented
   exception: an out-of-line Waveform.value call boxes its float argument
   and result per source per iteration) twice with different step counts.
   Each run's minor-heap allocation, less the words of the trace it
   returns (the per-step rows are the one O(steps) allocation of
   Engine.transient), must be *exactly* equal: the fixed per-call costs
   (the flat trace buffers, boxed float arguments) cancel, so any per-step
   or per-Newton-iteration allocation in the integration loop would
   surface as a nonzero difference over the 100 extra accepted steps.
   Both runs stay under the 256-point initial trace capacity so no buffer
   growth occurs, and every returned array is small enough to be
   allocated on the minor heap.  A MOSFET with all four terminals on
   ground is called once (in the DC solve) and then always reads its kept
   evaluation, so the voltage comparison and the stamps from the kept
   outputs run in every iteration without a boxing model call. *)
let test_zero_alloc_transient () =
  let net = N.create () in
  let gnd = N.ground net in
  let n1 = N.node net "n1" in
  N.resistor net "r1" ~a:n1 ~b:gnd ~ohms:1e3;
  N.capacitor net "c1" ~a:n1 ~b:gnd ~farads:1e-15;
  N.mosfet net "m1" ~d:gnd ~g:gnd ~s:gnd ~b:gnd
    ~dev:
      (Vstat_device.Cards.bsim_device ~polarity:Vstat_device.Device_model.Nmos
         ~w_nm:300.0 ~l_nm:40.0);
  let eng = E.compile net in
  let dt = 1e-12 in
  let run steps =
    let before = Gc.minor_words () in
    let r = E.transient eng ~tstop:(Float.of_int steps *. dt) ~dt in
    let words = Gc.minor_words () -. before in
    if Array.length r.E.times <> steps + 1 then
      Alcotest.failf "expected %d trace points, got %d" (steps + 1)
        (Array.length r.E.times);
    words -. Float.of_int (Obj.reachable_words (Obj.repr r))
  in
  (* Warm-up: one-time costs (first-solve paths, trace buffer sizing). *)
  ignore (run 50);
  let first = run 100 in
  let second = run 200 in
  Alcotest.(check (float 0.0))
    "minor words for 100 extra transient steps" 0.0 (second -. first)

(* The sparse counterpart: one KLU-style numeric iteration
   (zero / stamp by precomputed slots / factor / solve) must allocate
   nothing, same methodology as the transient gate above — the 100 extra
   iterations of the second run must cost exactly zero extra minor words.
   The pattern is a periodic tridiagonal (wrap-around couplings force real
   fill-in, so the factor loop runs through fill slots too). *)
let test_zero_alloc_sparse () =
  let module S = Vstat_linalg.Sparse in
  let n = 12 in
  let entries =
    Array.init (3 * n) (fun k ->
        let i = k / 3 in
        match k mod 3 with
        | 0 -> (i, i)
        | 1 -> (i, (i + 1) mod n)
        | _ -> ((i + 1) mod n, i))
  in
  let sym = S.analyze ~n ~entries in
  let num = S.create_numeric sym in
  let diag = Array.init n (fun i -> S.slot sym ~row:i ~col:i) in
  let upper = Array.init n (fun i -> S.slot sym ~row:i ~col:((i + 1) mod n)) in
  let lower = Array.init n (fun i -> S.slot sym ~row:((i + 1) mod n) ~col:i) in
  let rhs = Array.make n 0.0 in
  let vals = S.values num in
  let run iters =
    for _ = 1 to iters do
      Array.fill vals 0 (Array.length vals) 0.0;
      for i = 0 to n - 1 do
        vals.(diag.(i)) <- 4.0;
        vals.(upper.(i)) <- -1.0;
        vals.(lower.(i)) <- -1.0
      done;
      S.factor num;
      Array.fill rhs 0 n 1.0;
      S.solve_in_place num rhs
    done
  in
  run 50;
  let m0 = Gc.minor_words () in
  run 100;
  let m1 = Gc.minor_words () in
  run 200;
  let m2 = Gc.minor_words () in
  let first = m1 -. m0 and second = m2 -. m1 in
  Alcotest.(check (float 0.0))
    "minor words for 100 extra sparse factor/solve iterations" 0.0
    (second -. first)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "golden corpus" `Quick test_golden;
          Alcotest.test_case "allowlist line-pinned" `Quick
            test_allow_line_pinned;
          Alcotest.test_case "allowlist whole-file suffix" `Quick
            test_allow_whole_file;
          Alcotest.test_case "rule registry" `Quick test_rules_registry;
        ] );
      ( "deep",
        [
          Alcotest.test_case "deep golden (taint + domain chains)" `Quick
            test_deep_golden;
          Alcotest.test_case "guard deletion" `Quick test_guard_deletion;
          Alcotest.test_case "unused export (typed trees)" `Quick test_unused;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "transient inner loop allocates zero" `Quick
            test_zero_alloc_transient;
          Alcotest.test_case "sparse factor/solve loop allocates zero" `Quick
            test_zero_alloc_sparse;
        ] );
    ]
