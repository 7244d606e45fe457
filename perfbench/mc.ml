(* The three Monte Carlo workloads: fixed-size rounds through
   [Mc_compare.collect_run], the path every vstat figure takes, on the
   statistical-VS technology at jobs 2.  One round is one "job" in the
   end-to-end metrics: what a user waits for when a figure runs.

   Round r draws its inputs from the seed and [r mod cycle]: the first
   [cycle] rounds are distinct, later ones repeat them and must reproduce
   their results bit for bit. *)

open Common
module R = Vstat_runtime.Runtime
module C = Vstat_runtime.Checkpoint
module Rng = Vstat_util.Rng
module Techs = Vstat_core.Techs
module Cells = Vstat_cells
module Mc_compare = Vstat_experiments.Mc_compare

type t = {
  name : string;
  n : int;  (** samples per round at full size *)
  measure : Cells.Celltech.t -> float;
  every : int option;  (** journal flush interval; None: no checkpointing *)
  kernel : Kernels.circuit;
}

(* Short samples (~5 ms) on a 9-unknown dense circuit: device evaluation
   and the pool's per-sample overhead dominate. *)
let inv_fo3 =
  {
    name = "inv-fo3";
    n = 120;
    measure =
      (fun tech ->
        (Cells.Inverter.measure
           (Cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3))
          .tpd);
    every = None;
    kernel = Kernels.Fo3;
  }

(* Long samples (~55 ms) on 53 unknowns, past the sparse threshold: sparse
   LU, assembly and the per-sample compile with its symbolic cache carry
   their largest share here. *)
let chain48 =
  {
    name = "chain48";
    n = 16;
    measure =
      (fun tech -> Cells.Chain.measure (Cells.Chain.sample ~stages:48 tech));
    every = None;
    kernel = Kernels.Chain 48;
  }

(* DC-only samples (~1 ms) checkpointed at vstatd's flush interval: the
   journal rewrites its whole snapshot at every flush, so it is a real
   share of the round. *)
let sram_snm_journal =
  {
    name = "sram-snm-journal";
    n = 400;
    measure =
      (fun tech ->
        Cells.Sram6t.snm (Cells.Sram6t.sample tech) ~mode:Cells.Sram6t.Read);
    every = Some 8;
    kernel = Kernels.Sram_half;
  }

let all = [ inv_fo3; chain48; sram_snm_journal ]
let cycle = 4
let replay_n = 32
let round_n opts w = if opts.toy then 16 else w.n
let min_rounds opts = if opts.toy then 2 else 3

(* Round -1 is the untimed warm-up, on inputs no measured round uses. *)
let warmup_round = -1

let round_seed ~seed round =
  let inputs = if round < 0 then cycle else round mod cycle in
  Rng.int (Rng.substream ~seed ~index:inputs) ~bound:(1 lsl 30)

let case ~n ~round = Printf.sprintf "n%d/r%d" n (round mod cycle)

type round = {
  run : float R.run;
  wall_s : float;
  host : float;  (** host-speed factor ([Host.around]) *)
  snapshot : string option;  (** final journal snapshot, until [cleanup] *)
}

let corrected r = r.wall_s *. r.host

(* One Monte Carlo run of [n] samples.  [traced] wraps the technology and
   each sample in the probe; [journal] arms checkpointing for workloads
   that have it, into a directory that [cleanup] removes. *)
let run_round opts (p : Pipeline.t) w ?(tech = Techs.stochastic_vs)
    ?(traced = false) ?(journal = true) ~n round =
  let label = Printf.sprintf "%s-r%d" w.name round in
  let settings =
    match w.every with
    | Some every when journal -> Some (C.settings ~every (fresh_dir opts label))
    | _ -> None
  in
  let tech_of_rng rng =
    let t = tech p ~rng ~vdd:p.vdd in
    if traced then Probe.wrap_tech t else t
  in
  let measure t =
    if traced then Probe.sample (fun () -> w.measure t) else w.measure t
  in
  let go () =
    Mc_compare.collect_run ~jobs ~codec:C.float_codec ~label ~n ~tech_of_rng
      ~rng:(Rng.create ~seed:(round_seed ~seed:opts.seed round))
      ~measure ()
  in
  Mc_compare.set_default_checkpoint settings;
  let (run, wall_s), host =
    Fun.protect
      ~finally:(fun () -> Mc_compare.set_default_checkpoint None)
      (fun () ->
        Host.around ~domains:jobs (fun () ->
            timed (fun () ->
                if traced then
                  Probe.span ~cat:"round"
                    ~args:[ ("round", Float.of_int round) ]
                    "round" go
                else go ())))
  in
  {
    run;
    wall_s;
    host;
    snapshot = Option.map (fun s -> C.snapshot_path s label) settings;
  }

let cleanup r =
  Option.iter (fun path -> rm_rf (Filename.dirname path)) r.snapshot

(* --- correctness ----------------------------------------------------------- *)

type tally = {
  check : Common.ledger;
  mutable attempted : int;
  mutable failed : int;
  mutable firsts : (int * Pins.pin) list;  (** results of rounds < cycle *)
  mutable round0 : float R.run option;
}

(* Pinned at the default seed, plausible at any seed, and a repeat of an
   earlier round reproduces it exactly. *)
let account l opts w ~n round r =
  l.attempted <- l.attempted + n;
  l.failed <- l.failed + R.failed_count r.run;
  let got = Pins.of_values (R.values r.run) in
  let reference = case ~n ~round:0 in
  let case = case ~n ~round in
  Pins.check l.check ~seed:opts.seed ~workload:w.name ~case got;
  Pins.plausible l.check ~workload:w.name ~case ~reference got;
  (match List.assoc_opt (round mod cycle) l.firsts with
  | Some first ->
    require l.check
      (first.ok = got.ok
      && same_bits first.mean got.mean
      && same_bits first.std got.std)
      "%s round %d: repeat of round %d differs" w.name round (round mod cycle)
  | None -> l.firsts <- (round mod cycle, got) :: l.firsts);
  if round = 0 then l.round0 <- Some r.run

(* The first samples of round 0, recomputed on one domain without a
   journal, must equal the timed jobs-2 cells bit for bit.  Returns the
   KiB the replay allocated per sample. *)
let replay l opts (p : Pipeline.t) w ~n =
  match l.round0 with
  | None -> 0.0
  | Some r0 ->
    let k = Int.min replay_n n in
    let replayed, kib =
      allocated_kib (fun () ->
          Mc_compare.collect_run ~jobs:1 ~label:(w.name ^ "-replay") ~n:k
            ~tech_of_rng:(fun rng -> Techs.stochastic_vs p ~rng ~vdd:p.vdd)
            ~rng:(Rng.create ~seed:(round_seed ~seed:opts.seed 0))
            ~measure:w.measure ())
    in
    for i = 0 to k - 1 do
      let same =
        match (r0.cells.(i), replayed.cells.(i)) with
        | Ok a, Ok b -> same_bits a b
        | Error _, Error _ -> true
        | _ -> false
      in
      require l.check same "%s: sample %d differs between jobs:%d and jobs:1"
        w.name i jobs
    done;
    kib /. Float.of_int k

(* Rounds until [opts.seconds] of measurement are spent, at least
   [min_rounds]; [between] runs after each round, outside the timing. *)
let rounds ?(between = fun ~elapsed:_ -> ()) opts each =
  let t0 = Probe.now_ns () in
  let rec go round =
    if round < min_rounds opts || seconds_since t0 < opts.seconds then begin
      each round;
      between ~elapsed:(seconds_since t0);
      go (round + 1)
    end
  in
  go 0

let start check opts p w ~n =
  if not opts.toy then cleanup (run_round opts p w ~n warmup_round);
  { check; attempted = 0; failed = 0; firsts = []; round0 = None }

let median l = Stats.median (Array.of_list l)

(* --- measured run ---------------------------------------------------------- *)

(* A round is one job: the samples rate is the median round's, the job
   rate counts rounds over the time they took. *)
let round_metrics ~n walls =
  let walls = Array.of_list walls in
  [
    ("samples_per_s", Stats.median (Array.map (fun w -> Float.of_int n /. w) walls));
    ("jobs_per_s", Float.of_int (Array.length walls) /. Array.fold_left ( +. ) 0.0 walls);
    ("job_ms_p50", 1e3 *. Stats.percentile ~p:50.0 walls);
    ("job_ms_p95", 1e3 *. Stats.percentile ~p:95.0 walls);
  ]

(* Peak memory is read once the first [cycle] rounds (every distinct input)
   have run, before any repeated set-up build: the heap keeps growing
   slowly over later rounds, and how many of them fit in the time budget
   depends on the host. *)
let untraced check opts (setup : setup) w =
  let p = setup.pipeline in
  let n = round_n opts w in
  let l = start check opts p w ~n in
  let finished = ref [] and rss = ref None in
  rounds opts
    ~between:(fun ~elapsed ->
      if List.length !finished >= cycle then begin
        if Option.is_none !rss then rss := Some (peak_rss_mb ());
        setup_step setup ~elapsed ~seconds:opts.seconds
      end)
    (fun round ->
      let r = run_round opts p w ~n round in
      cleanup r;
      finished := r :: !finished;
      account l opts w ~n round r);
  let rss = match !rss with Some m -> m | None -> peak_rss_mb () in
  ignore (replay l opts p w ~n);
  let setup_s, setup_raw = setup_time setup in
  {
    attempted = l.attempted;
    failed = l.failed;
    metrics =
      (("setup_s", setup_s) :: round_metrics ~n (List.map corrected !finished))
      @ [ ("peak_rss_mb", rss) ];
    raw =
      ("setup_s", setup_raw)
      :: round_metrics ~n (List.map (fun r -> r.wall_s) !finished);
  }

(* --- traced run ------------------------------------------------------------ *)

(* A round's flush count, final snapshot size and the cost of rewriting
   it once, as every flush does. *)
let journal_metrics ~every ~n path =
  [
    ("runtime.journal_flushes", Float.of_int ((n / every) + 1));
    ("runtime.snapshot_kb", Float.of_int (file_size path) /. 1024.0);
    ("runtime.journal_write_ms", journal_write_ms path);
  ]

(* Untraced and traced rounds alternate, so both see the same machine
   state: the traced ones feed the per-layer accounting, and their rate
   against the untraced ones is the tracing overhead.  Afterwards the
   same round runs on the golden BSIM technology (paper Table IV), once
   traced for its per-eval cost and once plain for its wall time. *)
let traced check opts p ~trace_path w =
  let n = round_n opts w in
  let l = start check opts p w ~n in
  let cal = Probe.calibrate () in
  let origin = Probe.now_ns () in
  let plain = ref [] and instrumented = ref [] and journal = ref [] in
  let acc = Layers.create () in
  Probe.span ~cat:"workload" w.name (fun () ->
      rounds opts (fun round ->
          let r =
            if round mod 2 = 0 then begin
              let r = run_round opts p w ~n round in
              plain := corrected r :: !plain;
              r
            end
            else begin
              let r =
                Layers.count_work acc (fun () ->
                    run_round opts p w ~traced:true ~n round)
              in
              Layers.add_pool acc ~wall_s:r.wall_s ~stats:r.run.stats;
              instrumented := corrected r :: !instrumented;
              (match (w.every, r.snapshot, !journal) with
              | Some every, Some path, [] ->
                journal := journal_metrics ~every ~n path
              | _ -> ());
              r
            end
          in
          cleanup r;
          account l opts w ~n round r));
  let spans = Probe.spans () in
  Layers.add_spans acc spans;
  Probe.write_chrome ~path:trace_path ~origin_ns:origin spans;
  Probe.clear ();
  let journal_overhead =
    match w.every with
    | None -> 0.0
    | Some _ ->
      let r = run_round opts p w ~journal:false ~n 0 in
      (median !plain /. corrected r) -. 1.0
  in
  let bsim = Layers.create () in
  cleanup
    (Layers.count_work bsim (fun () ->
         run_round opts p w ~tech:Techs.stochastic_bsim ~traced:true
           ~journal:false ~n 0));
  Layers.add_spans bsim (Probe.spans ());
  Probe.clear ();
  let bsim_wall =
    corrected (run_round opts p w ~tech:Techs.stochastic_bsim ~journal:false ~n 0)
  in
  let alloc_kib = replay l opts p w ~n in
  let kernel = Kernels.estimate p w.kernel in
  let split = Layers.split acc cal in
  let vs_eval = Layers.eval_ns acc cal and bsim_eval = Layers.eval_ns bsim cal in
  let device_share = Layers.ratio split.device split.sample in
  let median_wall = median !plain in
  {
    attempted = l.attempted;
    failed = l.failed;
    metrics =
      Layers.metrics acc cal ~kernel
      @ [
          ("device.bsim_eval_ns", bsim_eval);
          ("device.vs_bsim_eval_ratio", Layers.ratio vs_eval bsim_eval);
          ("device.amdahl_bound", 1.0 /. (1.0 -. device_share));
          ("device.bsim_vs_wall_ratio", bsim_wall /. median_wall);
          ("runtime.alloc_kb_per_sample", alloc_kib);
          ("runtime.journal_overhead_frac", journal_overhead);
          ("trace.overhead_frac", (median !instrumented /. median_wall) -. 1.0);
        ]
      @ !journal;
    raw = [];
  }
