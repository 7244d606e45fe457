(* The service workload: an in-process vstatd (2 workers, jobs 1,
   queue_max 8, no fault injection) driven by two closed-loop clients.
   Each client is a fairness id that submits, waits for the result with
   [Client.await] (default 0.1 s poll), and submits the next job with no
   think time: every `vstat submit` caller waits for its reply, so the loop
   is closed.  The mix cycles idsat n=4096 (bound by its journal, which
   rewrites the whole snapshot every 8 samples), FO3 inverter delay n=16
   and SRAM READ SNM n=64; every 4th submission repeats that client's spec
   from 3 submissions earlier, which the service answers from its
   finished-job table.  Clients run in rounds of [batch] jobs each and meet
   between rounds. *)

open Common
module P = Vstat_service.Protocol
module S = Vstat_service.Service
module Client = Vstat_service.Client
module R = Vstat_runtime.Runtime
module C = Vstat_runtime.Checkpoint
module Rng = Vstat_util.Rng
module Cells = Vstat_cells

let name = "vstatd-mix"

let kinds =
  [| P.Idsat; P.Inverter_tpd { fanout = 3 }; P.Sram_snm { read = true } |]

let kind_name = function
  | P.Idsat -> "idsat"
  | P.Inverter_tpd _ -> "inverter"
  | P.Sram_snm _ -> "sram"

(* Samples per job; smoke runs shrink the journal-bound idsat job. *)
let kind_n (opts : opts) = function
  | P.Idsat -> if opts.toy then 256 else 4096
  | P.Inverter_tpd _ -> 16
  | P.Sram_snm _ -> 64

let case (spec : P.spec) = Printf.sprintf "%s/n%d" (kind_name spec.kind) spec.n

let is_repeat k = k mod 4 = 3

(* Submission [k] of client [client]; clients 0 and 1 are measured, 2 and
   3 warm up. *)
let rec spec opts ~vdd ~client k =
  if is_repeat k then spec opts ~vdd ~client (k - 3)
  else
    let kind = kinds.(k mod Array.length kinds) in
    {
      P.kind;
      n = kind_n opts kind;
      seed =
        Rng.int
          (Rng.substream ~seed:opts.seed
             ~index:(1_000_000 + (client * 100_000) + k))
          ~bound:(1 lsl 30);
      vdd;
      retry = 1;
    }

(* What a vstatd worker computes for one sample of [spec]; the benchmark's
   own copy, so it can check the service's answers. *)
let measure (p : Pipeline.t) (spec : P.spec) ~wrap rng =
  let tech = wrap (Vstat_core.Techs.stochastic_vs p ~rng ~vdd:spec.vdd) in
  match spec.kind with
  | P.Idsat ->
    Vstat_device.Metrics.idsat (tech.Cells.Celltech.nmos ~w_nm:200.0)
      ~vdd:spec.vdd
  | P.Inverter_tpd { fanout } ->
    (Cells.Inverter.measure
       (Cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout))
      .tpd
  | P.Sram_snm { read } ->
    Cells.Sram6t.snm (Cells.Sram6t.sample tech)
      ~mode:(if read then Cells.Sram6t.Read else Cells.Sram6t.Hold)

let recompute ?(traced = false) p (spec : P.spec) =
  let f rng =
    if traced then
      Probe.sample (fun () -> measure p spec ~wrap:Probe.wrap_tech rng)
    else measure p spec ~wrap:Fun.id rng
  in
  R.map_rng_samples ~jobs:1 ~rng:(Rng.create ~seed:spec.seed) ~n:spec.n ~f ()

(* --- service lifecycle ----------------------------------------------------- *)

type service = { t : S.t; server : unit Domain.t; dir : string; socket : string }

let start opts p index =
  let dir = fresh_dir opts (Printf.sprintf "vstatd-%d" index) in
  let socket = Filename.concat dir "vstatd.sock" in
  let config =
    {
      S.socket_path = socket;
      state_dir = dir;
      queue_max = 8;
      workers = 2;
      jobs = 1;
      poison_retries = 3;
      hang_timeout_s = 30.0;
      state_max_bytes = 0;
      pipeline_seed = 42;
      mc_per_geometry = 2000;
      inject = None;
    }
  in
  let t, create_s = timed (fun () -> S.create ~pipeline:p config) in
  ({ t; server = Domain.spawn (fun () -> S.serve t); dir; socket }, create_s)

let stop svc =
  S.stop svc.t;
  Domain.join svc.server;
  rm_rf svc.dir

(* [Service.create] three times; the last service built is the one
   measured.  Returns it and the median creation time. *)
let create_service opts p =
  let earlier =
    List.init 2 (fun i ->
        let svc, s = start opts p i in
        stop svc;
        s)
  in
  let svc, s = start opts p 2 in
  (svc, Stats.median (Array.of_list (s :: earlier)))

(* --- clients --------------------------------------------------------------- *)

type job = {
  client : int;
  k : int;
  spec : P.spec;
  submit_ms : float;
  e2e_ms : float;
  cached : bool;  (** the service answered from its finished-job table *)
  result : (P.summary, string) result;
}

let ms_since t0 = 1e3 *. seconds_since t0

let client_loop svc opts ~vdd ~client ~first_k ~count =
  let rec go k acc =
    if k >= first_k + count then List.rev acc
    else begin
      let spec = spec opts ~vdd ~client k in
      let t0 = Probe.now_ns () in
      let job ?(cached = false) ~submit_ms result =
        { client; k; spec; submit_ms; e2e_ms = ms_since t0; cached; result }
      in
      let j =
        Probe.span ~cat:"service"
          ~args:[ ("client", Float.of_int client); ("k", Float.of_int k) ]
          "job"
          (fun () ->
            match
              Probe.span ~cat:"service" "submit" (fun () ->
                  Client.submit
                    ~client:(Printf.sprintf "bench-%d" client)
                    ~socket_path:svc.socket ~spec ~deadline_s:0.0 ())
            with
            | Ok (P.Accepted { id; cached }) ->
              let submit_ms = ms_since t0 in
              let r =
                Probe.span ~cat:"service" "await" (fun () ->
                    Client.await ~socket_path:svc.socket ~id ())
              in
              job ~cached ~submit_ms
                (Result.map_error Client.await_error_to_string r)
            | Ok (P.Rejected _) -> job ~submit_ms:(ms_since t0) (Error "rejected")
            | Ok _ -> job ~submit_ms:(ms_since t0) (Error "unexpected response")
            | Error e -> job ~submit_ms:(ms_since t0) (Error e))
      in
      go (k + 1) (j :: acc)
    end
  in
  go first_k []

(* One round: every client submits [count] jobs back to back from its
   [first_k]-th, one closed-loop client per domain.  Returns the jobs and
   the wall time from the first submission to the last result. *)
let drive svc opts ~vdd ~first_client ~first_k ~count =
  timed (fun () ->
      List.init jobs (fun c ->
          Domain.spawn (fun () ->
              client_loop svc opts ~vdd ~client:(first_client + c) ~first_k
                ~count))
      |> List.concat_map Domain.join)

(* --- correctness ----------------------------------------------------------- *)

let values_equal a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

let check_jobs l opts p jobs_done health =
  List.iter
    (fun j ->
      match j.result with
      | Error e -> fail l "%s client %d job %d: %s" name j.client j.k e
      | Ok (s : P.summary) ->
        require l
          (s.completed = j.spec.n && (not s.partial) && s.cause = "finished")
          "%s client %d job %d: completed %d/%d, cause %s" name j.client j.k
          s.completed j.spec.n s.cause;
        if is_repeat j.k then begin
          let earlier =
            List.find_opt (fun e -> e.client = j.client && e.k = j.k - 3) jobs_done
          in
          require l j.cached "%s client %d job %d: repeat was not a cache hit"
            name j.client j.k;
          match earlier with
          | Some { result = Ok e; _ } ->
            require l (values_equal e.values s.values)
              "%s client %d job %d: cached values differ from job %d" name
              j.client j.k (j.k - 3)
          | _ -> ()
        end)
    jobs_done;
  (match health with
  | Ok (h : P.health) ->
    require l
      (h.worker_crashes = 0 && h.requeued = 0 && h.quarantined = 0)
      "%s: health shows %d crashes, %d requeued, %d quarantined" name
      h.worker_crashes h.requeued h.quarantined
  | Error e -> fail l "%s: health request failed: %s" name e);
  (* The first job of each kind, recomputed in process, must match the
     service's answer bit for bit (and its pin at the default seed). *)
  List.iter
    (fun j ->
      if j.client = 0 && j.k < Array.length kinds then begin
        let mine = R.values (recompute p j.spec) in
        (match j.result with
        | Ok s ->
          require l (values_equal mine s.values)
            "%s %s: service values differ from the in-process recomputation"
            name (case j.spec)
        | Error _ -> ());
        Pins.check l ~seed:opts.seed ~workload:name
          ~case:(case j.spec) (Pins.of_values mine)
      end)
    jobs_done

let health svc =
  match Client.request ~socket_path:svc.socket P.Health with
  | Ok (P.Health_report h) -> Ok h
  | Ok _ -> Error "unexpected response"
  | Error e -> Error e

(* --- run ------------------------------------------------------------------- *)

let summaries jobs_done =
  List.filter_map (fun j -> Result.to_option j.result) jobs_done

let percentile_of p = function
  | [] -> 0.0
  | l -> Stats.percentile ~p (Array.of_list l)

(* Per-layer view of the mix: the service from its clients and [Health],
   the layers under it from an in-process replay of the first job of each
   kind (the library does not expose its workers' closures). *)
let service_layer_metrics opts p svc jobs_done (h : P.health option) =
  let sums = summaries jobs_done in
  let computed =
    summaries (List.filter (fun j -> not j.cached) jobs_done)
  in
  let snapshots =
    Sys.readdir svc.dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
    |> List.map (Filename.concat svc.dir)
  in
  let largest =
    List.fold_left
      (fun best f -> if file_size f > file_size best then f else best)
      (List.hd snapshots) snapshots
  in
  (* Journal cost inside one idsat job: the same run with and without
     vstatd's checkpoint settings. *)
  let idsat = spec opts ~vdd:p.Pipeline.vdd ~client:0 0 in
  let idsat_run settings =
    snd
      (timed (fun () ->
           C.run ~jobs:1 ?settings ~codec:C.float_codec ~label:"journal-overhead"
             ~rng:(Rng.create ~seed:idsat.seed) ~n:idsat.n
             ~f:(fun ~attempt:_ ~index:_ rng -> measure p idsat ~wrap:Fun.id rng)
             ()))
  in
  let reps f = Stats.median (Array.init (if opts.toy then 1 else 3) (fun _ -> f ())) in
  let with_journal =
    reps (fun () ->
        idsat_run
          (Some (C.settings ~every:8 (fresh_dir opts "journal-overhead"))))
  in
  let without = reps (fun () -> idsat_run None) in
  rm_rf (Filename.concat opts.work_dir "journal-overhead");
  let f = Float.of_int in
  let h_field g = match h with Some h -> f (g h) | None -> 0.0 in
  let submit_ms = List.map (fun j -> j.submit_ms) jobs_done in
  [
    ( "runtime.journal_flushes",
      f (List.fold_left (fun a (s : P.summary) -> a + (s.n / 8) + 1) 0 computed) );
    ("runtime.snapshot_kb", f (file_size largest) /. 1024.0);
    ("runtime.journal_write_ms", journal_write_ms largest);
    ("runtime.journal_overhead_frac", (with_journal /. without) -. 1.0);
    ("service.submit_ms_p50", percentile_of 50.0 submit_ms);
    ("service.submit_ms_p95", percentile_of 95.0 submit_ms);
    ( "service.compute_ms_p50",
      percentile_of 50.0 (List.map (fun (s : P.summary) -> 1e3 *. s.wall_s) computed) );
    ( "service.overhead_ms_p50",
      percentile_of 50.0
        (List.filter_map
           (fun j ->
             Result.to_option j.result
             |> Option.map (fun (s : P.summary) -> j.e2e_ms -. (1e3 *. s.wall_s)))
           jobs_done) );
    ( "service.cache_hit_frac",
      Layers.ratio (f (List.length sums - List.length computed)) (f (List.length sums)) );
    ("service.state_kb", h_field (fun h -> h.state_bytes) /. 1024.0);
    ("service.requeued", h_field (fun h -> h.requeued));
    ("service.worker_crashes", h_field (fun h -> h.worker_crashes));
  ]

(* Device, draw, circuit and runtime figures for the mix, from the first
   job of each kind replayed in process, traced and plain. *)
let replay_metrics p jobs_done =
  let firsts =
    List.filter (fun j -> j.client = 0 && j.k < Array.length kinds) jobs_done
  in
  let cal = Probe.calibrate () in
  let acc = Layers.create () in
  let plain = ref 0.0 and traced = ref 0.0 and kib = ref 0.0 and n = ref 0 in
  List.iter
    (fun j ->
      let run, k = allocated_kib (fun () -> recompute p j.spec) in
      kib := !kib +. k;
      n := !n + j.spec.n;
      plain := !plain +. run.R.stats.wall_s;
      let run = Layers.count_work acc (fun () -> recompute ~traced:true p j.spec) in
      Layers.add_pool acc ~wall_s:run.R.stats.wall_s ~stats:run.R.stats;
      traced := !traced +. run.R.stats.wall_s)
    firsts;
  Layers.add_spans acc (Probe.spans ());
  Probe.clear ();
  Layers.metrics acc cal ~kernel:(Kernels.estimate p Kernels.Fo3)
  @ [
      ("runtime.alloc_kb_per_sample", Layers.ratio !kib (Float.of_int !n));
      ("trace.overhead_frac", (!traced /. !plain) -. 1.0);
    ]

(* Over all rounds; the time between rounds is not counted. *)
let service_metrics rounds =
  let sums = summaries (List.concat_map fst rounds) in
  let wall = List.fold_left (fun a (_, w) -> a +. w) 0.0 rounds in
  let e2e =
    List.concat_map (fun (jobs, _) -> List.map (fun j -> j.e2e_ms) jobs) rounds
    |> Array.of_list
  in
  [
    ( "samples_per_s",
      Float.of_int (List.fold_left (fun a (s : P.summary) -> a + s.completed) 0 sums)
      /. wall );
    ("jobs_per_s", Float.of_int (List.length sums) /. wall);
    ("job_ms_p50", Stats.percentile ~p:50.0 e2e);
    ("job_ms_p95", Stats.percentile ~p:95.0 e2e);
  ]

(* Rounds of [batch] jobs per client until [opts.seconds] are spent; the
   clients meet between rounds, where the set-up build is repeated. *)
let batch opts = if opts.toy then 4 else 6

(* Set-up is the extraction (see [Common.setup]) plus [Service.create]. *)
let run l opts ~trace_path =
  let setup = Common.setup opts in
  let p = setup.pipeline in
  let svc, create_s = create_service opts p in
  let vdd = p.Pipeline.vdd in
  (* Warm-up: one job of each kind per client, on specs never measured. *)
  if not opts.toy then
    ignore (drive svc opts ~vdd ~first_client:jobs ~first_k:0 ~count:3);
  Probe.clear ();
  let t0 = Probe.now_ns () in
  (* Peak memory after the first two rounds, as in [Mc.untraced]; the
     service's finished-job table grows with every job after that. *)
  let rss = ref None in
  let rec go i acc =
    if i > 0 && (opts.toy || seconds_since t0 >= opts.seconds) then List.rev acc
    else
      let r =
        drive svc opts ~vdd ~first_client:0 ~first_k:(i * batch opts)
          ~count:(batch opts)
      in
      if i >= 1 then begin
        if Option.is_none !rss then rss := Some (peak_rss_mb ());
        setup_step setup ~elapsed:(seconds_since t0) ~seconds:opts.seconds
      end;
      go (i + 1) (r :: acc)
  in
  let rounds = go 0 [] in
  let rss = match !rss with Some m -> m | None -> peak_rss_mb () in
  let jobs_done = List.concat_map fst rounds in
  let h = health svc in
  let service_layer =
    if opts.traced then begin
      let spans = Probe.spans () in
      Probe.write_chrome ~path:trace_path ~origin_ns:t0 spans;
      Probe.clear ();
      service_layer_metrics opts p svc jobs_done (Result.to_option h)
    end
    else []
  in
  stop svc;
  check_jobs l opts p jobs_done h;
  let failed =
    List.length
      (List.filter
         (fun j ->
           match j.result with
           | Ok s -> s.completed < j.spec.n || s.partial
           | Error _ -> true)
         jobs_done)
  in
  if opts.traced then
    {
      attempted = List.length jobs_done;
      failed;
      metrics = replay_metrics p jobs_done @ service_layer;
      raw = [];
    }
  else
    let setup_s, setup_raw = setup_time setup in
    {
      attempted = List.length jobs_done;
      failed;
      metrics =
        (("setup_s", setup_s +. create_s) :: service_metrics rounds)
        @ [ ("peak_rss_mb", rss) ];
      raw = [ ("setup_s", setup_raw +. create_s) ];
    }
