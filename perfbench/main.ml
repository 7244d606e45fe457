(* The vstat benchmark.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe compare A.jsonl B.jsonl
     main.exe smoke
     main.exe pin > perfbench/pins.txt

   Run from the repository root (perfbench/run.sh builds and runs it
   there): BENCHMARK.json names the workloads and each metric's unit,
   direction and bound, and traces and journals go to .perfbench/.
   README.md explains the workloads and metrics. *)

open Common

let work_dir = ".perfbench"
let workloads = List.map (fun (w : Mc.t) -> w.name) Mc.all @ [ Vstatd.name ]

let trace_path opts name =
  Filename.concat opts.work_dir ("trace-" ^ name ^ ".json")

(* --- BENCHMARK.json -------------------------------------------------------- *)

type declared = {
  name : string;
  unit : string;
  higher_better : bool;
  bound : float option;
}

type benchmark = {
  declared_workloads : string list;
  end_to_end : declared list;
  per_layer : declared list;
}

let load_benchmark path =
  let j = Json.of_string (In_channel.with_open_text path In_channel.input_all) in
  let missing k = failwith (path ^ ": missing " ^ k) in
  let str k o =
    match Json.member k o with Some (Json.Str s) -> s | _ -> missing k
  in
  let list k =
    match Json.member k j with Some (Json.Arr l) -> l | _ -> missing k
  in
  let metric o =
    {
      name = str "name" o;
      unit = str "unit" o;
      higher_better = str "better" o = "higher";
      bound =
        (match Json.member "bound" o with
        | Some (Json.Num b) -> Some b
        | _ -> None);
    }
  in
  {
    declared_workloads = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* --- run ------------------------------------------------------------------- *)

let run_workload opts name =
  let l = ledger () in
  mkdir_p opts.work_dir;
  let trace_path = trace_path opts name in
  let outcome =
    if name = Vstatd.name then Vstatd.run l opts ~trace_path
    else begin
      let w = List.find (fun (w : Mc.t) -> w.name = name) Mc.all in
      let s = setup opts in
      if opts.traced then Mc.traced l opts s.pipeline ~trace_path w
      else Mc.untraced l opts s w
    end
  in
  (outcome, errors l)

(* Every metric the mode declares, in declaration order, with its unit.
   End-to-end metrics must all be measured; a per-layer one the workload
   does not produce reads 0. *)
let resolve bench ~traced (o : outcome) =
  let declared = if traced then bench.per_layer else bench.end_to_end in
  let undeclared_or_nonfinite (n, v) =
    if not (List.exists (fun d -> d.name = n) declared) then
      Some ("metric not declared in BENCHMARK.json: " ^ n)
    else if not (Float.is_finite v) then
      Some (Printf.sprintf "metric %s is %g" n v)
    else None
  in
  let unmeasured d =
    if (not traced) && not (List.mem_assoc d.name o.metrics) then
      Some ("end-to-end metric not measured: " ^ d.name)
    else None
  in
  let values =
    List.map
      (fun d ->
        (d, Option.value ~default:0.0 (List.assoc_opt d.name o.metrics)))
      declared
  in
  ( values,
    List.filter_map undeclared_or_nonfinite o.metrics
    @ List.filter_map unmeasured declared )

let result_json ~correct (o : outcome) values =
  let metric (d, v) =
    (d.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str d.unit) ])
  in
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (Float.of_int o.attempted));
      ("failed", Json.Num (Float.of_int o.failed));
      ("metrics", Json.Obj (List.map metric values));
    ]

let cmd_run ~bench_path ~workload ~seed ~seconds ~trace =
  let bench = load_benchmark bench_path in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %s (expected one of: %s)\n" workload
      (String.concat ", " workloads);
    exit 2
  end;
  let opts = { seed; seconds; traced = trace; toy = false; work_dir } in
  let outcome, errors = run_workload opts workload in
  let values, problems = resolve bench ~traced:trace outcome in
  let errors = errors @ problems in
  List.iter
    (fun (d, v) ->
      Printf.printf "%-36s %16.6f %-6s%s\n" d.name v d.unit
        (match List.assoc_opt d.name outcome.raw with
        | Some r -> Printf.sprintf " (raw %.6f)" r
        | None -> ""))
    values;
  if trace then Printf.printf "trace written to %s\n" (trace_path opts workload);
  List.iter (fun e -> Printf.eprintf "FAIL: %s\n" e) errors;
  let correct = errors = [] in
  print_endline (Json.to_string (result_json ~correct outcome values));
  if not correct then exit 1

(* --- compare --------------------------------------------------------------- *)

(* Result lines saved from runs of one workload: any line of the file that
   parses as a JSON object with "metrics". *)
let load_results path =
  let values kv =
    List.filter_map
      (fun (k, v) ->
        match Json.member "value" v with
        | Some (Json.Num x) -> Some (k, x)
        | _ -> None)
      kv
  in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         match Json.member "metrics" (Json.of_string line) with
         | Some (Json.Obj kv) -> Some (values kv)
         | _ -> None
         | exception Json.Parse_error _ -> None)

(* Median and IQR per side; a shift beyond a metric's bound in its worse
   direction is a regression, unless either side's own spread (IQR over
   median) already exceeds the bound: then the comparison is unresolved
   and says so, except when every B run beats every A run. *)
let verdict d ~bound xa xb =
  let ma = Stats.median xa and mb = Stats.median xb in
  let worse = (if d.higher_better then ma -. mb else mb -. ma) /. Float.abs ma in
  let spread x m = Stats.iqr x /. Float.abs m in
  let beats x y = if d.higher_better then x > y else x < y in
  if Array.for_all (fun y -> Array.for_all (beats y) xa) xb then
    ("better in every run", false)
  else if spread xa ma > bound || spread xb mb > bound then
    ("unresolved: spread above bound", false)
  else if worse > bound then ("REGRESSION", true)
  else if -.worse > bound then ("better", false)
  else ("within bound", false)

let cmd_compare ~bench_path a_path b_path =
  let bench = load_benchmark bench_path in
  let a = load_results a_path and b = load_results b_path in
  List.iter
    (fun (runs, path) ->
      if List.is_empty runs then begin
        Printf.eprintf "compare: no result lines in %s\n" path;
        exit 2
      end)
    [ (a, a_path); (b, b_path) ];
  let regressions = ref 0 in
  Printf.printf "%-34s %12s %10s %12s %10s %9s  %s\n" "metric" "A median"
    "A IQR" "B median" "B IQR" "shift" "verdict";
  List.iter
    (fun d ->
      let side runs =
        Array.of_list (List.filter_map (List.assoc_opt d.name) runs)
      in
      let xa = side a and xb = side b in
      if Array.length xa > 0 && Array.length xb > 0 then begin
        let ma = Stats.median xa and mb = Stats.median xb in
        let shift =
          if Float.equal ma 0.0 then 0.0 else (mb -. ma) /. Float.abs ma
        in
        let text =
          match d.bound with
          | Some bound when not (Float.equal ma 0.0) ->
            let text, regression = verdict d ~bound xa xb in
            if regression then incr regressions;
            text
          | _ -> ""
        in
        Printf.printf "%-34s %12.6g %10.4g %12.6g %10.4g %+8.2f%%  %s\n" d.name
          ma (Stats.iqr xa) mb (Stats.iqr xb) (100.0 *. shift) text
      end)
    (bench.end_to_end @ bench.per_layer);
  Printf.printf "%d run(s) in A, %d in B, %d regression(s)\n" (List.length a)
    (List.length b) !regressions;
  if !regressions > 0 then exit 1

(* --- smoke and pin --------------------------------------------------------- *)

let toy_opts ~traced =
  {
    seed = default_seed;
    seconds = 0.0;
    traced;
    toy = true;
    work_dir = Filename.concat work_dir "smoke";
  }

(* Every workload at toy size, plain and traced, with every correctness
   gate on and every declared metric produced. *)
let cmd_smoke ~bench_path =
  let bench = load_benchmark bench_path in
  let failures = ref 0 in
  if bench.declared_workloads <> workloads then begin
    Printf.printf "BENCHMARK.json workloads differ from %s\n"
      (String.concat ", " workloads);
    incr failures
  end;
  List.iter
    (fun traced ->
      List.iter
        (fun name ->
          let (outcome, errors), secs =
            timed (fun () -> run_workload (toy_opts ~traced) name)
          in
          let errors = errors @ snd (resolve bench ~traced outcome) in
          Printf.printf "%-18s %-7s %4d attempted %2d failed %5.1fs %s\n%!"
            name
            (if traced then "traced" else "plain")
            outcome.attempted outcome.failed secs
            (if errors = [] then "ok" else "FAIL");
          List.iter (fun e -> Printf.printf "  %s\n" e) errors;
          if errors <> [] then incr failures)
        workloads)
    [ false; true ];
  rm_rf (toy_opts ~traced:false).work_dir;
  if !failures > 0 then exit 1

(* Reference results of the default seed at both sizes, in pins.txt
   format. *)
let cmd_pin () =
  let opts = { (toy_opts ~traced:false) with work_dir } in
  let p = (setup opts).pipeline in
  let print ~workload ~case values =
    print_endline (Pins.line ~workload ~case (Pins.of_values values))
  in
  print_endline
    "# Reference results of the default seed, checked by every run at that \
     seed.\n\
     # Regenerate with: dune exec perfbench/main.exe -- pin > \
     perfbench/pins.txt\n\
     # workload case ok-count mean std (hex floats)";
  List.iter
    (fun (w : Mc.t) ->
      List.sort_uniq Int.compare
        [ Mc.round_n opts w; Mc.round_n { opts with toy = false } w ]
      |> List.iter (fun n ->
             for round = 0 to Mc.cycle - 1 do
               let r = Mc.run_round opts p w ~n round in
               Mc.cleanup r;
               print ~workload:w.name ~case:(Mc.case ~n ~round)
                 (Vstat_runtime.Runtime.values r.run)
             done))
    Mc.all;
  List.concat_map
    (fun toy ->
      List.init (Array.length Vstatd.kinds)
        (Vstatd.spec { opts with toy } ~vdd:p.vdd ~client:0))
    [ true; false ]
  |> List.sort_uniq (fun a b -> String.compare (Vstatd.case a) (Vstatd.case b))
  |> List.iter (fun spec ->
         print ~workload:Vstatd.name ~case:(Vstatd.case spec)
           (Vstat_runtime.Runtime.values (Vstatd.recompute p spec)))

(* --- command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe compare A.jsonl B.jsonl\n\
    \       main.exe smoke\n\
    \       main.exe pin\n\
     Every command accepts --benchmark FILE (default BENCHMARK.json).";
  exit 2

(* [--key value] pairs, then any positional arguments. *)
let rec flags acc = function
  | k :: v :: rest when String.starts_with ~prefix:"--" k ->
    flags ((k, v) :: acc) rest
  | rest -> (acc, rest)

let () =
  let command, rest =
    match List.tl (Array.to_list Sys.argv) with
    | c :: rest -> (c, rest)
    | [] -> usage ()
  in
  let positional, rest =
    match (command, rest) with
    | "compare", a :: b :: rest -> ([ a; b ], rest)
    | _ -> ([], rest)
  in
  let kv, extra = flags [] rest in
  if extra <> [] then usage ();
  let get k = List.assoc_opt k kv in
  let bench_path = Option.value ~default:"BENCHMARK.json" (get "--benchmark") in
  match (command, positional) with
  | "run", _ -> (
    match
      ( get "--workload",
        Option.bind (get "--seed") int_of_string_opt,
        Option.bind (get "--seconds") float_of_string_opt,
        get "--trace" )
    with
    | Some workload, Some seed, Some seconds, Some (("0" | "1") as t) ->
      cmd_run ~bench_path ~workload ~seed ~seconds ~trace:(t = "1")
    | _ -> usage ())
  | "compare", [ a; b ] -> cmd_compare ~bench_path a b
  | "smoke", _ -> cmd_smoke ~bench_path
  | "pin", _ -> cmd_pin ()
  | _ -> usage ()
