(* Bechamel benchmark harness: one benchmark per paper table/figure plus the
   ablation benches called out in DESIGN.md.

   Groups:
   - fit/*      : nominal extraction cost (Fig. 1)
   - bpv/*      : sensitivity + stacked solve cost, tied vs untied (Fig. 2,
                  Table II ablation)
   - mc/*       : device-level Monte Carlo (Fig. 3/4, Table III), pinned
                  to the serial jobs:1 runtime path
   - mc-parallel/* : the same device-level Monte Carlo through the
                  Vstat_runtime domain pool at the recommended worker
                  count -- compare against mc/* for the parallel speedup
                  (identical samples by the determinism contract)
   - circuit/*  : one Monte Carlo sample of each benchmark circuit
                  (Figs. 5-9)
   - speed/*    : raw model-evaluation cost and per-sample circuit cost for
                  both models through the same engine (Table IV)
   - ablation/* : backward-Euler vs trapezoidal integration, analytic vs
                  finite-difference device Jacobians

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

let pipeline = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:600 ()
let vdd = pipeline.vdd

(* Every benchmark owns a private substream of the master bench seed, so
   adding, removing or reordering benches never perturbs another bench's
   sample path.  (Deterministic per-iteration RNG would make samples
   identical; a per-bench mutable stream is fine since cost is
   state-independent.) *)
let bench_rng =
  let next = ref 0 in
  fun () ->
    incr next;
    Vstat_util.Rng.substream ~seed:99 ~index:!next

let nominal_golden_nmos =
  Vstat_core.Bsim_statistical.nominal_device pipeline.golden_nmos ~w_nm:300.0
    ~l_nm:40.0

let fit_dataset =
  Vstat_core.Extract_nominal.golden_dataset nominal_golden_nmos ~vdd

let seed_params = Vstat_device.Cards.vs_seed_nmos ~w_nm:300.0 ~l_nm:40.0

let bench_fit_objective =
  Test.make ~name:"fit/objective-eval"
    (Staged.stage (fun () ->
         Vstat_core.Extract_nominal.objective
           ~polarity:Vstat_device.Device_model.Nmos fit_dataset seed_params))

let observations = pipeline.observations_nmos

let bench_bpv options name =
  Test.make ~name
    (Staged.stage (fun () ->
         Vstat_core.Bpv.extract ~vs:pipeline.vs_nmos ~vdd ~options observations))

let bench_bpv_tied =
  bench_bpv
    { Vstat_core.Bpv.default_options with
      known_cinv_alpha = pipeline.golden_nmos.alphas.a_cinv }
    "bpv/extract-tied"

let bench_bpv_untied =
  bench_bpv
    { Vstat_core.Bpv.default_options with
      tie_l_w = false;
      known_cinv_alpha = pipeline.golden_nmos.alphas.a_cinv }
    "bpv/extract-untied"

let bench_sensitivity_row =
  Test.make ~name:"bpv/sensitivity-jacobian"
    (Staged.stage (fun () ->
         Vstat_core.Sensitivity.vs_jacobian pipeline.vs_nmos ~w_nm:600.0
           ~l_nm:40.0 ~vdd))

let bench_mc_device_vs =
  let rng = bench_rng () in
  Test.make ~name:"mc/device-vs-100"
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_vs pipeline.vs_nmos ~jobs:1 ~rng ~n:100
           ~w_nm:600.0 ~l_nm:40.0 ~vdd))

let bench_mc_device_bsim =
  let rng = bench_rng () in
  Test.make ~name:"mc/device-bsim-100"
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_bsim pipeline.golden_nmos ~jobs:1 ~rng ~n:100
           ~w_nm:600.0 ~l_nm:40.0 ~vdd))

(* Same workload through the domain pool: the ratio to the mc/* twin is the
   parallel speedup (the samples are bit-identical; only scheduling
   differs). *)
let pool_jobs = Vstat_runtime.Runtime.default_jobs ()

let bench_mc_parallel_vs =
  let rng = bench_rng () in
  Test.make ~name:(Printf.sprintf "mc-parallel/device-vs-100-j%d" pool_jobs)
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_vs pipeline.vs_nmos ~jobs:pool_jobs ~rng
           ~n:100 ~w_nm:600.0 ~l_nm:40.0 ~vdd))

let bench_mc_parallel_bsim =
  let rng = bench_rng () in
  Test.make ~name:(Printf.sprintf "mc-parallel/device-bsim-100-j%d" pool_jobs)
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_bsim pipeline.golden_nmos ~jobs:pool_jobs
           ~rng ~n:100 ~w_nm:600.0 ~l_nm:40.0 ~vdd))

let bench_ellipse =
  let samples =
    Vstat_core.Mc_device.of_vs pipeline.vs_nmos
      ~rng:(Vstat_util.Rng.create ~seed:3)
      ~n:1000 ~w_nm:600.0 ~l_nm:40.0 ~vdd
  in
  Test.make ~name:"stats/fig4-ellipses"
    (Staged.stage (fun () ->
         List.map
           (fun k ->
             Vstat_stats.Ellipse.of_sigma_level ~n_sigma:k samples.idsat
               samples.log10_ioff)
           [ 1; 2; 3 ]))

let vs_tech rng = Vstat_core.Techs.stochastic_vs pipeline ~rng ~vdd
let bsim_tech rng = Vstat_core.Techs.stochastic_bsim pipeline ~rng ~vdd

let bench_inv_sample name tech_of =
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let s =
           Vstat_cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3
         in
         Vstat_cells.Inverter.measure s))

let bench_nand2_sample name tech_of =
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let s =
           Vstat_cells.Nand2.sample tech ~wp_nm:300.0 ~wn_nm:300.0 ~fanout:3
         in
         Vstat_cells.Nand2.measure s))

let bench_dff_capture name tech_of =
  (* One capture transient: the unit of work inside the setup-time
     bisection (a full bisection is ~10 of these). *)
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let s = Vstat_cells.Dff.sample tech in
         Vstat_cells.Dff.capture_ok s ~t_d:150e-12 ~data_rising:true))

let bench_sram_snm name tech_of =
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let cell = Vstat_cells.Sram6t.sample tech in
         Vstat_cells.Sram6t.snm cell ~mode:Vstat_cells.Sram6t.Read))

let bench_model_eval name dev =
  Test.make ~name
    (Staged.stage (fun () ->
         let acc = ref 0.0 in
         for i = 0 to 99 do
           let vg = 0.9 *. Float.of_int (i mod 10) /. 9.0 in
           acc :=
             !acc
             +. Vstat_device.Device_model.ids dev ~vg ~vd:0.9 ~vs:0.0 ~vb:0.0
         done;
         !acc))

let vs_dev =
  Vstat_core.Vs_statistical.nominal_device pipeline.vs_nmos ~w_nm:600.0
    ~l_nm:40.0

let bsim_dev =
  Vstat_core.Bsim_statistical.nominal_device pipeline.golden_nmos ~w_nm:600.0
    ~l_nm:40.0

(* The ablations share one inverter transient and differ in one knob each:
   [strip_derivs] removes the devices' analytic derivative path, forcing
   the 5-evals-per-device finite-difference linearization the engine used
   to always pay; [trap] switches backward Euler to trapezoidal. *)
let build_inverter_engine ~strip_derivs =
  let tech = Vstat_core.Techs.nominal_vs pipeline ~vdd in
  let devices =
    Vstat_cells.Gates.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0
  in
  let devices =
    if strip_derivs then
      {
        Vstat_cells.Gates.pmos =
          Vstat_device.Device_model.without_derivs devices.pmos;
        nmos = Vstat_device.Device_model.without_derivs devices.nmos;
      }
    else devices
  in
  let net = Vstat_circuit.Netlist.create () in
  let gnd = Vstat_circuit.Netlist.ground net in
  let nvdd = Vstat_circuit.Netlist.node net "vdd" in
  let nin = Vstat_circuit.Netlist.node net "in" in
  let nout = Vstat_circuit.Netlist.node net "out" in
  Vstat_circuit.Netlist.vsource net "vvdd" ~plus:nvdd ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc vdd);
  Vstat_circuit.Netlist.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.pwl [| (50e-12, 0.0); (60e-12, vdd) |]);
  Vstat_cells.Gates.add_inverter net ~name:"x" ~devices ~input:nin
    ~output:nout ~vdd_node:nvdd ~gnd;
  Vstat_circuit.Netlist.capacitor net "cl" ~a:nout ~b:gnd ~farads:2e-15;
  Vstat_circuit.Engine.compile net

let bench_ablation name ~strip_derivs ~trap =
  Test.make ~name
    (Staged.stage (fun () ->
         let eng = build_inverter_engine ~strip_derivs in
         Vstat_circuit.Engine.transient
           ~options:{ (Vstat_circuit.Engine.current_options ()) with trap }
           eng ~tstop:400e-12 ~dt:1e-12))

let bench_ring_oscillator =
  let rng = bench_rng () in
  Test.make ~name:"circuit/ring-oscillator-vs"
    (Staged.stage (fun () ->
         let tech = vs_tech (Vstat_util.Rng.split rng) in
         Vstat_cells.Ring_oscillator.measure
           (Vstat_cells.Ring_oscillator.sample tech)))

let bench_chain =
  let rng = bench_rng () in
  Test.make ~name:"circuit/ssta-chain-vs"
    (Staged.stage (fun () ->
         let tech = vs_tech (Vstat_util.Rng.split rng) in
         Vstat_cells.Chain.measure (Vstat_cells.Chain.sample ~stages:8 tech)))

let bench_ac_sweep =
  let tech = Vstat_core.Techs.nominal_vs pipeline ~vdd in
  let devices =
    Vstat_cells.Gates.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0
  in
  let net = Vstat_circuit.Netlist.create () in
  let gnd = Vstat_circuit.Netlist.ground net in
  let nvdd = Vstat_circuit.Netlist.node net "vdd" in
  let nin = Vstat_circuit.Netlist.node net "in" in
  let nout = Vstat_circuit.Netlist.node net "out" in
  Vstat_circuit.Netlist.vsource net "vvdd" ~plus:nvdd ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc vdd);
  Vstat_circuit.Netlist.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc (0.45 *. vdd));
  Vstat_cells.Gates.add_inverter net ~name:"x" ~devices ~input:nin
    ~output:nout ~vdd_node:nvdd ~gnd;
  let eng = Vstat_circuit.Engine.compile net in
  let op = Vstat_circuit.Engine.dc eng in
  Test.make ~name:"circuit/ac-sweep-40pt"
    (Staged.stage (fun () ->
         Vstat_circuit.Ac.sweep eng ~op ~source:"vin"
           ~freqs_hz:(Vstat_util.Floatx.logspace 6.0 12.0 40)))

let tests =
  Test.make_grouped ~name:"vstat"
    [
      bench_fit_objective;
      bench_sensitivity_row;
      bench_bpv_tied;
      bench_bpv_untied;
      bench_mc_device_vs;
      bench_mc_device_bsim;
      bench_mc_parallel_vs;
      bench_mc_parallel_bsim;
      bench_ellipse;
      bench_inv_sample "circuit/fig5-inv-delay-vs" vs_tech;
      bench_inv_sample "speed/table4-inv-bsim" bsim_tech;
      bench_nand2_sample "circuit/fig7-nand2-vs" vs_tech;
      bench_nand2_sample "speed/table4-nand2-bsim" bsim_tech;
      bench_dff_capture "circuit/fig8-dff-capture-vs" vs_tech;
      bench_dff_capture "speed/table4-dff-bsim" bsim_tech;
      bench_sram_snm "circuit/fig9-sram-snm-vs" vs_tech;
      bench_sram_snm "speed/table4-sram-bsim" bsim_tech;
      bench_model_eval "speed/table4-vs-eval-100" vs_dev;
      bench_model_eval "speed/table4-bsim-eval-100" bsim_dev;
      bench_ablation "ablation/integrator-backward-euler" ~strip_derivs:false
        ~trap:false;
      bench_ablation "ablation/integrator-trapezoidal" ~strip_derivs:false
        ~trap:true;
      bench_ablation "ablation/jacobian-analytic" ~strip_derivs:false
        ~trap:false;
      bench_ablation "ablation/jacobian-fd" ~strip_derivs:true ~trap:false;
      bench_ring_oscillator;
      bench_chain;
      bench_ac_sweep;
    ]

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
let rare_compare out_path =
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
let service_bench out_path =
  let module SP = Vstat_service.Protocol in
  let module SS = Vstat_service.Service in
  let module SC = Vstat_service.Client in
  let iters = 10 in
  let deadline_s = 2.0 in
  let spec seed = { SP.kind = SP.Idsat; n = 16; seed; vdd; retry = 2 } in
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
      let t0 = Unix.gettimeofday () in
      match SC.submit ~client:(Printf.sprintf "bench-%d" rank) ~socket_path
              ~spec:(spec seed) ~deadline_s ()
      with
      | Ok (SP.Accepted { id; _ }) -> (
        sub := (Unix.gettimeofday () -. t0) :: !sub;
        match SC.await ~socket_path ~id () with
        | Ok s ->
          e2e := (Unix.gettimeofday () -. t0) :: !e2e;
          incr accepted;
          if s.SP.partial then incr partial
        | Error e ->
          Fmt.epr "service bench: await %s: %s@." id
            (SC.await_error_to_string e);
          exit 1)
      | Ok (SP.Rejected { reason }) -> (
        sub := (Unix.gettimeofday () -. t0) :: !sub;
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

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  List.iter
    (fun instance ->
      let label = Measure.label instance in
      let results = Analyze.all ols instance raw in
      Fmt.pr "== %s ==@." label;
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
      List.iter
        (fun (name, est) ->
          match Analyze.OLS.estimates est with
          | Some [ per_run ] ->
            if label = "monotonic-clock" then
              Fmt.pr "%-40s %12.1f ns/run@." name per_run
            else Fmt.pr "%-40s %12.0f w/run@." name per_run
          | _ -> Fmt.pr "%-40s (no estimate)@." name)
        (List.sort compare rows))
    instances;
  (* Aggregate circuit-engine work across every bench iteration above: a
     quick sanity check that the analytic Jacobian path dominates (fd > 0
     only from the ablation/jacobian-fd group and FD-only devices). *)
  let c = Vstat_circuit.Engine.global_counters () in
  Fmt.pr "== engine counters (all benches) ==@.";
  List.iter
    (fun (name, v) -> Fmt.pr "%-24s %12d@." name v)
    [
      ("newton-iterations", c.Vstat_circuit.Engine.newton_iterations);
      ("model-evaluations", c.model_evaluations);
      ("analytic-evals", c.analytic_evaluations);
      ("fd-evals", c.fd_evaluations);
      ("assemblies", c.assemblies);
      ("lu-factorizations", c.lu_factorizations);
      ("accepted-steps", c.accepted_steps);
      ("rejected-steps", c.rejected_steps);
      ("breakpoint-hits", c.breakpoint_hits);
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "--rare" :: rest ->
    let out = match rest with [ p ] -> p | _ -> "BENCH_rare.json" in
    rare_compare out
  | _ :: "--service" :: rest ->
    let out = match rest with [ p ] -> p | _ -> "BENCH_service.json" in
    service_bench out
  | _ -> run_benchmarks ()
