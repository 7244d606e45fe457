(* Kill/resume chaos drill (alias @chaos, also wired into @runtest).

   A checkpointed Monte Carlo run is SIGTERM'd from a sibling domain
   mid-flight, exactly as an operator or a batch scheduler would kill the
   process.  Checkpoint.run traps the signal, drains the pool at a sample
   boundary, flushes a final snapshot and raises Interrupted; we then
   "restart" by resuming
   from that snapshot — at jobs:1 and at jobs:4 — and require the merged
   results to be bit-identical to an uninterrupted golden run.

   The process-level SIGTERM disposition is parked on a no-op OCaml
   handler first, so a signal that lands after Checkpoint.run has already
   restored the previous handler degrades to a harmless wakeup instead of
   killing the drill itself. *)

module C = Vstat_runtime.Checkpoint
module Rng = Vstat_util.Rng

let () = Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> ()))

let n = 400
let seed = 20130318 (* DATE 2013 *)

(* When armed ([released] = false), samples in the upper half of the index
   range stall until the killer domain has sent its SIGTERM, so the signal
   is guaranteed to land mid-run no matter how fast the pool drains.
   Stalling only delays evaluation: the value still depends solely on
   (index, substream), so bit-identity is untouched. *)
let released = Atomic.make true

let sample ~attempt:_ ~index rng =
  if index >= n / 2 then
    while not (Atomic.get released) do
      Domain.cpu_relax ()
    done;
  let acc = ref 0.0 in
  for _ = 1 to 200 do
    let g = Rng.gaussian rng in
    acc := !acc +. (g *. g)
  done;
  !acc

let bits = Int64.bits_of_float

let assert_bit_identical what a b =
  if Array.length a <> Array.length b then begin
    Printf.eprintf "resume_chaos: %s: length %d vs %d\n" what (Array.length a)
      (Array.length b);
    exit 1
  end;
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then begin
        Printf.eprintf "resume_chaos: %s: sample %d differs (%h vs %h)\n" what
          i x b.(i);
        exit 1
      end)
    a

let golden =
  C.values
    (C.run ~jobs:1 ~codec:C.float_codec ~label:"chaos" ~rng:(Rng.create ~seed)
       ~n ~f:sample ())

let () =
  (* The uninterrupted run itself must be worker-count independent. *)
  assert_bit_identical "golden jobs:4"
    golden
    (C.values
       (C.run ~jobs:4 ~codec:C.float_codec ~label:"chaos"
          ~rng:(Rng.create ~seed) ~n ~f:sample ()))

let drill ~resume_jobs =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vstat_resume_chaos_%d_j%d" (Unix.getpid ()) resume_jobs)
  in
  Vstat_util.Atomic_io.ensure_dir dir;
  (* Phase 1: run under checkpointing with a killer domain watching our
     progress: once ~1/8 of the samples have landed it SIGTERMs the
     process, then unblocks the stalled upper-half samples so the pool can
     drain to its snapshot, after which Checkpoint.run raises
     Interrupted. *)
  Atomic.set released false;
  let progress = Atomic.make 0 in
  let killer =
    Domain.spawn (fun () ->
        while Atomic.get progress < n / 8 do
          Unix.sleepf 0.001
        done;
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        (* A beat for the runtime to deliver the signal before the stalled
           samples resume. *)
        Unix.sleepf 0.02;
        Atomic.set released true)
  in
  (match
     C.run ~jobs:4
       ~on_progress:(fun ~completed ~n:_ -> Atomic.set progress completed)
       ~settings:(C.settings ~every:3 dir)
       ~signals:[ Sys.sigterm ] ~codec:C.float_codec ~label:"chaos"
       ~rng:(Rng.create ~seed) ~n ~f:sample ()
   with
  | exception C.Interrupted { signal; completed; n; _ } ->
    Domain.join killer;
    Printf.printf
      "resume_chaos: jobs:%d drill: killed by signal %d after %d/%d samples\n"
      resume_jobs (C.os_signal_number signal) completed n
  | { C.cause = C.Finished; _ } ->
    Domain.join killer;
    (* The race can lose on a fast machine; the resume below then simply
       verifies the no-op-replay path.  Still a pass, but say so. *)
    Printf.printf
      "resume_chaos: jobs:%d drill: run finished before SIGTERM landed\n"
      resume_jobs
  | { C.cause = C.Deadline_reached; _ } ->
    prerr_endline "resume_chaos: unexpected deadline in the kill drill";
    exit 1);
  (* Phase 2: "restart the process" — resume from the flushed snapshot. *)
  let o2 =
    C.run ~jobs:resume_jobs
      ~settings:(C.settings ~every:3 ~resume:true dir)
      ~codec:C.float_codec ~label:"chaos" ~rng:(Rng.create ~seed) ~n
      ~f:sample ()
  in
  if not (C.is_complete o2) then begin
    Printf.eprintf "resume_chaos: resume left %d/%d samples incomplete\n"
      (o2.C.n - o2.C.completed) o2.C.n;
    exit 1
  end;
  assert_bit_identical
    (Printf.sprintf "resumed(jobs:%d) vs uninterrupted" resume_jobs)
    golden (C.values o2);
  Printf.printf
    "resume_chaos: jobs:%d resume: restored %d, replayed %d, bit-identical\n"
    resume_jobs o2.C.restored (n - o2.C.restored)

let () =
  drill ~resume_jobs:1;
  drill ~resume_jobs:4;
  print_endline "resume_chaos: PASS"
