let log_src =
  Logs.Src.create "vstat.runtime" ~doc:"Parallel Monte Carlo execution engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- failure classification --- *)

(* Domain layers register classifiers mapping their typed exceptions to a
   census category (e.g. the circuit engine's [Diag.Solver_error] to its
   diagnostic kind).  Registration happens at library initialization, before
   any pool exists, so reads from worker domains race with nothing. *)
let classifiers : (exn -> string option) list ref = ref []

let register_classifier f = classifiers := f :: !classifiers

let classify exn =
  let rec first = function
    | [] -> Printexc.exn_slot_name exn
    | f :: rest -> ( match f exn with Some c -> c | None -> first rest)
  in
  first !classifiers

type attempt_failure = {
  attempt : int;
  category : string;
  detail : string;
}

type failure = {
  index : int;
  exn_name : string;
  category : string;
  detail : string;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  history : attempt_failure list;
}

type stats = {
  jobs : int;
  n : int;
  wall_s : float;
  samples_per_sec : float;
  per_worker : int array;
  retried_samples : int;
  recovered_samples : int;
}

type 'a run = {
  cells : ('a, failure) result array;
  attempts : int array;
  stats : stats;
}

(* --- retry policy --- *)

type retry_policy = {
  max_attempts : int;
  retryable : exn -> bool;
}

let retry ?(retryable = fun _ -> true) max_attempts =
  if max_attempts < 1 then
    invalid_arg "Runtime.retry: max_attempts must be >= 1";
  { max_attempts; retryable }

let no_retry = { max_attempts = 1; retryable = (fun _ -> false) }

(* --- worker-count policy --- *)

let forced_jobs = ref None

let env_jobs () =
  match Sys.getenv_opt "VSTAT_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | _ ->
      Log.warn (fun m -> m "ignoring invalid VSTAT_JOBS=%S" s);
      None)

let default_jobs () =
  match !forced_jobs with
  | Some j -> j
  | None -> (
    match env_jobs () with
    | Some j -> j
    | None -> Domain.recommended_domain_count ())

let set_default_jobs j =
  if j < 1 then invalid_arg "Runtime.set_default_jobs: jobs must be >= 1";
  forced_jobs := Some j

(* --- execution --- *)

let capture ~index ~history exn backtrace =
  {
    index;
    exn_name = Printexc.exn_slot_name exn;
    category = classify exn;
    detail = Printexc.to_string exn;
    exn;
    backtrace;
    history = List.rev history;
  }

(* One sample under the retry ladder.  The ladder runs inline on the worker
   that owns index [i], so the (attempt sequence, result) is a pure function
   of [i] — scheduling and worker count cannot perturb it. *)
let[@vstat.entry] eval ~policy f i =
  let rec go attempt history =
    match f ~attempt i with
    | v -> (Ok v, attempt + 1)
    | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      if attempt + 1 < policy.max_attempts && policy.retryable exn then
        go (attempt + 1)
          ({ attempt; category = classify exn;
             detail = Printexc.to_string exn }
           :: history)
      else (Error (capture ~index:i ~history exn backtrace), attempt + 1)
  in
  go 0 []

(* Both execution paths run over an explicit [indices] work list (the
   identity permutation for a full run; the incomplete tail of a resumed
   run for the checkpoint machinery) and poll [should_stop] at sample
   boundaries, so a deadline watchdog or a signal flag can drain the pool
   without tearing any in-flight sample.  Result cells stay addressed by
   sample index, never by work-list position — the determinism contract
   is untouched by subsetting. *)

let[@vstat.entry] run_serial ?on_progress ~should_stop ~policy ~n ~indices ~f () =
  let m = Array.length indices in
  let cells = Array.make n None in
  let attempts = Array.make n 0 in
  let chunk = Int.max 1 (m / 20) in
  let k = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !k < m do
    if should_stop () then stopped := true
    else begin
      let i = indices.(!k) in
      let cell, used = eval ~policy f i in
      attempts.(i) <- used;
      cells.(i) <- Some cell;
      incr k;
      match on_progress with
      | Some cb when !k mod chunk = 0 || !k = m -> cb ~completed:!k ~n:m
      | _ -> ()
    end
  done;
  (cells, attempts, [| !k |])

let[@vstat.entry] run_parallel ?on_progress ~should_stop ~policy ~jobs ~n ~indices ~f () =
  let m = Array.length indices in
  let cells = Array.make n None in
  let attempts = Array.make n 0 in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let stop_flag = Atomic.make false in
  let per_worker = Array.make jobs 0 in
  let progress_mutex = Mutex.create () in
  (* Small chunks give dynamic load balancing (samples have very uneven
     cost: a DFF bisection vs a device metric); the atomic counter is the
     only shared mutable word on the hot path. *)
  let chunk = Int.max 1 (m / (jobs * 8)) in
  let worker w =
    let rec loop () =
      if Atomic.get stop_flag || should_stop () then
        Atomic.set stop_flag true
      else begin
        let start = Atomic.fetch_and_add next chunk in
        if start < m then begin
          let stop = Int.min m (start + chunk) in
          let k = ref start in
          while !k < stop && not (Atomic.get stop_flag) do
            let i = indices.(!k) in
            let cell, used = eval ~policy f i in
            attempts.(i) <- used;
            cells.(i) <- Some cell;
            incr k;
            if should_stop () then Atomic.set stop_flag true
          done;
          let batch = !k - start in
          per_worker.(w) <- per_worker.(w) + batch;
          let total = Atomic.fetch_and_add completed batch + batch in
          (match on_progress with
          | Some cb ->
            Mutex.protect progress_mutex (fun () -> cb ~completed:total ~n:m)
          | None -> ());
          loop ()
        end
      end
    in
    loop ()
  in
  let helpers =
    Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1)))
  in
  worker 0;
  Array.iter Domain.join helpers;
  (cells, attempts, per_worker)

let failed_count run =
  Array.fold_left
    (fun acc -> function Ok _ -> acc | Error _ -> acc + 1)
    0 run.cells

let ok_count run = run.stats.n - failed_count run

type stop_cause = Completed | Stopped

type 'a partial = {
  slots : ('a, failure) result option array;
  slot_attempts : int array;
  partial_stats : stats;
  cause : stop_cause;
  evaluated : int;
}

let run_core ?jobs ?on_progress ?(should_stop = fun () -> false) ~policy ~n
    ~indices ~f () =
  let m = Array.length indices in
  let jobs =
    match jobs with Some j -> Int.max 1 j | None -> default_jobs ()
  in
  let jobs = Int.max 1 (Int.min jobs m) in
  let t0 = Unix.gettimeofday () in
  let slots, slot_attempts, per_worker =
    if jobs = 1 then
      run_serial ?on_progress ~should_stop ~policy ~n ~indices ~f ()
    else
      run_parallel ?on_progress ~should_stop ~policy ~jobs ~n ~indices ~f ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let evaluated = Array.fold_left (fun acc k -> acc + k) 0 per_worker in
  let retried_samples = ref 0 and recovered_samples = ref 0 in
  Array.iteri
    (fun i used ->
      if used > 1 then begin
        incr retried_samples;
        match slots.(i) with
        | Some (Ok _) -> incr recovered_samples
        | Some (Error _) | None -> ()
      end)
    slot_attempts;
  let partial_stats =
    {
      jobs;
      n = m;
      wall_s;
      samples_per_sec =
        (if wall_s > 0.0 then Float.of_int evaluated /. wall_s
         else Float.infinity);
      per_worker;
      retried_samples = !retried_samples;
      recovered_samples = !recovered_samples;
    }
  in
  {
    slots;
    slot_attempts;
    partial_stats;
    cause = (if evaluated = m then Completed else Stopped);
    evaluated;
  }

let map_subset_attempt_samples ?jobs ?on_progress ?(retry = no_retry)
    ?should_stop ~n ~indices ~f () =
  if n < 0 then
    invalid_arg "Runtime.map_subset_attempt_samples: n must be >= 0";
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf
             "Runtime.map_subset_attempt_samples: index %d outside [0,%d)" i
             n))
    indices;
  run_core ?jobs ?on_progress ?should_stop ~policy:retry ~n ~indices ~f ()

let map_rng_samples ?jobs ~rng ~n ~f () =
  if n < 0 then invalid_arg "Runtime.map_rng_samples: n must be >= 0";
  let seed = Int64.to_int (Vstat_util.Rng.bits64 rng) in
  let p =
    run_core ?jobs ~policy:no_retry ~n
      ~indices:(Array.init n (fun i -> i))
      ~f:(fun ~attempt:_ i -> f (Vstat_util.Rng.substream ~seed ~index:i))
      ()
  in
  let cells =
    Array.map (function Some c -> c | None -> assert false) p.slots
  in
  let run = { cells; attempts = p.slot_attempts; stats = p.partial_stats } in
  Log.info (fun m ->
      m "map_rng_samples: n=%d jobs=%d wall=%.3fs rate=%.0f/s failed=%d" n
        run.stats.jobs run.stats.wall_s run.stats.samples_per_sec
        (failed_count run));
  run

(* --- result access --- *)

let values run =
  Array.of_list
    (Array.fold_right
       (fun cell acc -> match cell with Ok v -> v :: acc | Error _ -> acc)
       run.cells [])

let failures run =
  Array.fold_right
    (fun cell acc -> match cell with Ok _ -> acc | Error f -> f :: acc)
    run.cells []

let failure_census run =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.category
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.category)))
    (failures run);
  let census = Hashtbl.fold (fun name c acc -> (name, c) :: acc) tbl [] in
  (* Count descending, then name ascending — with explicit monomorphic
     comparators so the ordering is independent of polymorphic-compare
     details and the Hashtbl's internal bucket order. *)
  List.sort
    (fun (na, ca) (nb, cb) ->
      match Int.compare cb ca with 0 -> String.compare na nb | c -> c)
    census

let census_to_string census =
  String.concat ", "
    (List.map (fun (name, c) -> Printf.sprintf "%s:%d" name c) census)

let check_budget ?(label = "runtime") ~max_failure_frac run =
  let n = run.stats.n in
  let failed = failed_count run in
  (* An empty run trivially meets any budget; guard it explicitly so the
     vacuous 0-failures-of-0 case can neither warn nor raise. *)
  if n > 0 && failed > 0 then begin
    let census = failure_census run in
    let first =
      match failures run with f :: _ -> f.detail | [] -> assert false
    in
    if Float.of_int failed > max_failure_frac *. Float.of_int n then
      failwith
        (Printf.sprintf
           "%s: %d/%d samples failed, over the %.0f%% failure budget \
            (by category: %s; first: %s)"
           label failed n
           (100.0 *. max_failure_frac)
           (census_to_string census) first)
    else
      Log.warn (fun m ->
          m "%s: %d/%d samples failed within the %.0f%% budget \
             (by category: %s; first: %s)"
            label failed n
            (100.0 *. max_failure_frac)
            (census_to_string census) first)
  end

let reraise_first_failure run =
  match failures run with
  | [] -> ()
  | f :: _ -> Printexc.raise_with_backtrace f.exn f.backtrace

let pp_stats ppf s =
  Format.fprintf ppf
    "n=%d jobs=%d wall=%.3fs rate=%.0f samples/s per-worker=[%s]" s.n s.jobs
    s.wall_s s.samples_per_sec
    (String.concat ";" (Array.to_list (Array.map string_of_int s.per_worker)));
  if s.retried_samples > 0 then
    Format.fprintf ppf " retried=%d recovered=%d" s.retried_samples
      s.recovered_samples
