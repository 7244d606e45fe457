(* Two one-shot comparisons whose results are committed as BENCH_*.json:

   - [--rare [OUT.json]]: the three SRAM-yield estimators at equal
     confidence-interval width (BENCH_rare.json);
   - [--service [OUT.json]]: a closed-loop client ramp against an
     in-process vstatd (BENCH_service.json).

   Timing benchmarks live in perfbench/.  Run with:
   dune exec bench/main.exe -- --rare | --service [OUT.json] *)

let build_pipeline () =
  Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:600 ()

(* --- rare-event estimator comparison ----------------------------------- *)

(* `dune exec bench/main.exe -- --rare [OUT.json]`: run the three SRAM-yield
   estimators (plain MC golden, pilot-aimed importance sampling, statistical
   blockade) at the reachable ~1e-3 tail level and record, per estimator,
   the number of full circuit simulations spent and the plain-MC sample
   count that an interval of the same width would have cost.  The headline
   figure is fewer full simulations than plain MC at equal CI width:
   IS speedup = mc-equivalent samples / simulations spent; blockade speedup
   = 1 / simulation fraction (its Wilson interval is the one plain MC would
   report at the same trial count). *)
let rare_compare (pipeline : Vstat_core.Pipeline.t) out_path =
  let module Y = Vstat_experiments.Exp_sram_yield in
  let module I = Vstat_rare.Importance in
  let module B = Vstat_rare.Blockade in
  let n_plain = 2000 and n_is = 400 and n_blockade = 2000 in
  let is_pilot = 200 in
  let half r = 0.5 *. (r.I.ci_hi -. r.I.ci_lo) in
  Fmt.pr "rare: plain MC golden (n=%d)...@." n_plain;
  let plain = Y.estimate_plain ~n:n_plain pipeline in
  Fmt.pr "rare: importance sampling (n=%d + pilot %d)...@." n_is is_pilot;
  let is = Y.estimate_is ~n:n_is ~pilot_n:is_pilot pipeline in
  Fmt.pr "rare: statistical blockade (n=%d trials)...@." n_blockade;
  let blockade = Y.estimate_blockade ~n:n_blockade pipeline in
  let is_sims = is.I.n_requested + is_pilot in
  let is_equiv = I.mc_equivalent_samples is in
  let is_speedup = is_equiv /. Float.of_int is_sims in
  let b_sims = blockade.B.n_pilot + blockade.B.n_simulated in
  let b_speedup = 1.0 /. B.simulation_fraction blockade in
  let b_half = 0.5 *. (blockade.B.ci_hi -. blockade.B.ci_lo) in
  let json =
    Printf.sprintf
      "{\n\
      \  \"workload\": \"sram-yield p(SNM < 25 mV) at vdd 0.80, read mode\",\n\
      \  \"plain\": { \"simulations\": %d, \"p_hat\": %.6e,\n\
      \             \"ci_half_width\": %.6e },\n\
      \  \"importance_sampling\": {\n\
      \    \"simulations\": %d, \"p_hat\": %.6e, \"ci_half_width\": %.6e,\n\
      \    \"ess\": %.1f, \"max_weight\": %.3f,\n\
      \    \"mc_equivalent_samples\": %.0f,\n\
      \    \"speedup_vs_plain_at_equal_ci\": %.1f\n\
      \  },\n\
      \  \"blockade\": {\n\
      \    \"trials\": %d, \"simulations\": %d, \"p_hat\": %.6e,\n\
      \    \"ci_half_width\": %.6e,\n\
      \    \"speedup_vs_plain_at_equal_ci\": %.1f\n\
      \  }\n\
       }\n"
      n_plain plain.I.p_hat (half plain) is_sims is.I.p_hat (half is)
      is.I.ess is.I.max_weight is_equiv is_speedup blockade.B.n b_sims
      blockade.B.p_hat b_half b_speedup
  in
  Out_channel.with_open_text out_path (fun oc -> output_string oc json);
  Fmt.pr "plain    : %d sims, p=%.3e (half-width %.2e)@." n_plain
    plain.I.p_hat (half plain);
  Fmt.pr "is       : %d sims, p=%.3e (half-width %.2e), %.1fx plain MC@."
    is_sims is.I.p_hat (half is) is_speedup;
  Fmt.pr "blockade : %d sims, p=%.3e (half-width %.2e), %.1fx plain MC@."
    b_sims blockade.B.p_hat b_half b_speedup;
  Fmt.pr "-> %s@." out_path

(* --- service load generator -------------------------------------------- *)

(* `dune exec bench/main.exe -- --service [OUT.json]`: drive an in-process
   vstatd (reusing the bench pipeline, so startup is free) with a ramp of
   closed-loop clients, each submitting uniquely-seeded idsat jobs with a
   per-request deadline.  The headline is graceful degradation: overload
   is shed with typed rejections (queue-full / over-deadline) instead of
   growing the queue without bound, and the end-to-end latency of the
   accepted requests (one blocking [Client.await] each) shows how the
   service itself slows as the offered load rises.  Submit
   round-trip latency (the admission decision) is recorded separately —
   it must stay flat even when the worker is saturated. *)
let service_bench (pipeline : Vstat_core.Pipeline.t) out_path =
  let module SP = Vstat_service.Protocol in
  let module SS = Vstat_service.Service in
  let module SC = Vstat_service.Client in
  let iters = 10 in
  let deadline_s = 2.0 in
  let spec seed =
    { SP.kind = SP.Idsat; n = 16; seed; vdd = pipeline.vdd; retry = 2 }
  in
  (* One ramp per pool width: a wider pool should push the knee of the
     latency curve to a higher offered load with the same queue bound. *)
  let pool_widths = [ 1; 4 ] in
  let ramp workers =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vstat_bench_service_w%d" workers)
  in
  (* Seeds are deterministic, so stale journals from a previous bench run
     would turn every job into a cache hit and flatten the latencies. *)
  (if Sys.file_exists dir then
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir));
  Vstat_util.Atomic_io.ensure_dir dir;
  let socket_path = Filename.concat dir "vstatd.sock" in
  let cfg =
    {
      SS.socket_path;
      state_dir = dir;
      queue_max = 8;
      workers;
      jobs = 1;
      poison_retries = 3;
      hang_timeout_s = 30.0;
      state_max_bytes = 0;
      pipeline_seed = 42;
      mc_per_geometry = 600;
      (* must match the bench pipeline above *)
      inject = None;
    }
  in
  let t = SS.create ~pipeline cfg in
  let server = Domain.spawn (fun () -> SS.serve t) in
  (* One closed-loop client: submit, await if accepted, tally typed
     rejections.  Returns its private counters; nothing is shared across
     domains. *)
  let client ~step ~rank () =
    let e2e = ref [] and sub = ref [] in
    let accepted = ref 0
    and q_full = ref 0
    and over_dl = ref 0
    and partial = ref 0 in
    for i = 0 to iters - 1 do
      let seed =
        1_000_000 + (workers * 100_000) + (step * 10_000) + (rank * 100) + i
      in
      let t0 = Vstat_runtime.Deadline.now_ns () in
      match SC.submit ~client:(Printf.sprintf "bench-%d" rank) ~socket_path
              ~spec:(spec seed) ~deadline_s ()
      with
      | Ok (SP.Accepted { id; _ }) -> (
        sub := Vstat_runtime.Deadline.seconds_since t0 :: !sub;
        match SC.await ~socket_path ~id () with
        | Ok s ->
          e2e := Vstat_runtime.Deadline.seconds_since t0 :: !e2e;
          incr accepted;
          if s.SP.partial then incr partial
        | Error e ->
          Fmt.epr "service bench: await %s: %s@." id
            (SC.await_error_to_string e);
          exit 1)
      | Ok (SP.Rejected { reason }) -> (
        sub := Vstat_runtime.Deadline.seconds_since t0 :: !sub;
        match reason with
        | SP.Queue_full _ ->
          incr q_full;
          Unix.sleepf 0.05
        | SP.Over_deadline _ ->
          incr over_dl;
          Unix.sleepf 0.05
        | SP.Bad_request { detail } ->
          Fmt.epr "service bench: bad request: %s@." detail;
          exit 1)
      | Ok _ ->
        Fmt.epr "service bench: unexpected submit response@.";
        exit 1
      | Error m ->
        Fmt.epr "service bench: submit: %s@." m;
        exit 1
    done;
    (!e2e, !sub, !accepted, !q_full, !over_dl, !partial)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then Float.nan
    else sorted.(Int.min (n - 1) (int_of_float (p *. Float.of_int n)))
  in
  let steps = [ 1; 2; 4; 8; 16 ] in
  let rows =
    List.mapi
      (fun step clients ->
        let results =
          List.init clients (fun rank ->
              Domain.spawn (client ~step ~rank))
          |> List.map Domain.join
        in
        let e2e = List.concat_map (fun (l, _, _, _, _, _) -> l) results in
        let sub = List.concat_map (fun (_, l, _, _, _, _) -> l) results in
        let sum f = List.fold_left (fun a r -> a + f r) 0 results in
        let accepted = sum (fun (_, _, a, _, _, _) -> a) in
        let q_full = sum (fun (_, _, _, q, _, _) -> q) in
        let over_dl = sum (fun (_, _, _, _, o, _) -> o) in
        let partial = sum (fun (_, _, _, _, _, p) -> p) in
        let sorted l =
          let a = Array.of_list l in
          Array.sort Float.compare a;
          a
        in
        let e2e = sorted e2e and sub = sorted sub in
        let ms x = 1e3 *. x in
        let row =
          Printf.sprintf
            "    { \"clients\": %d, \"submitted\": %d, \"accepted\": %d,\n\
            \      \"shed_queue_full\": %d, \"shed_over_deadline\": %d,\n\
            \      \"partial\": %d,\n\
            \      \"e2e_ms\": { \"p50\": %.1f, \"p95\": %.1f, \"p99\": \
             %.1f },\n\
            \      \"submit_ms\": { \"p50\": %.2f, \"p99\": %.2f } }"
            clients (clients * iters) accepted q_full over_dl partial
            (ms (percentile e2e 0.50))
            (ms (percentile e2e 0.95))
            (ms (percentile e2e 0.99))
            (ms (percentile sub 0.50))
            (ms (percentile sub 0.99))
        in
        Fmt.pr
          "service: w%d %2d clients: %3d submitted, %3d accepted, %d+%d \
           shed, %d partial, e2e p50/p99 %.0f/%.0f ms, submit p99 %.2f ms@."
          workers clients (clients * iters) accepted q_full over_dl partial
          (ms (percentile e2e 0.50))
          (ms (percentile e2e 0.99))
          (ms (percentile sub 0.99));
        row)
      steps
  in
  (match SC.request ~socket_path SP.Shutdown with
  | Ok SP.Shutting_down -> ()
  | Ok _ | Error _ -> Fmt.epr "service bench: shutdown did not ack@.");
  Domain.join server;
  Printf.sprintf "    { \"workers\": %d, \"steps\": [\n%s\n    ] }" workers
    (String.concat ",\n" rows)
  in
  let pools = List.map ramp pool_widths in
  let json =
    Printf.sprintf
      "{\n\
      \  \"workload\": \"idsat n=16 closed-loop ramp, queue_max 8, deadline \
       %.1f s\",\n\
      \  \"pools\": [\n%s\n  ]\n}\n"
      deadline_s
      (String.concat ",\n" pools)
  in
  Out_channel.with_open_text out_path (fun oc -> output_string oc json);
  Fmt.pr "-> %s@." out_path

let () =
  let run f rest default =
    let out = match rest with [ p ] -> p | _ -> default in
    f (build_pipeline ()) out
  in
  match Array.to_list Sys.argv with
  | _ :: "--rare" :: rest -> run rare_compare rest "BENCH_rare.json"
  | _ :: "--service" :: rest -> run service_bench rest "BENCH_service.json"
  | _ ->
    prerr_endline "usage: main.exe (--rare | --service) [OUT.json]";
    exit 2
