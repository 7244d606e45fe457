(* Checkpoint/resume correctness: journal round-trips and typed
   rejection of corrupt/mismatched snapshots, subset execution and stop
   polling in the runtime, codec round-trips, deadline watchdogs, and the
   tentpole property — an interrupted-then-resumed Monte Carlo run is
   bit-identical to an uninterrupted one at any worker count. *)

module R = Vstat_runtime.Runtime
module C = Vstat_runtime.Checkpoint
module J = Vstat_runtime.Journal
module D = Vstat_runtime.Deadline
module Rng = Vstat_util.Rng

let bits = Int64.bits_of_float

let check_bits_array what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: sample %d differs: %h vs %h" what i x b.(i))
    a

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vstat_ckpt_test_%d_%d" (Unix.getpid ()) !counter)
    in
    Vstat_util.Atomic_io.ensure_dir dir;
    dir

(* --- CRC32 ------------------------------------------------------------- *)

let test_crc32 () =
  Alcotest.(check int)
    "IEEE check vector" 0xCBF43926
    (Vstat_util.Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Vstat_util.Crc32.digest "");
  Alcotest.(check int)
    "digest_sub matches digest"
    (Vstat_util.Crc32.digest "456")
    (Vstat_util.Crc32.digest_sub "123456789" ~pos:3 ~len:3)

(* --- journal round-trip and rejection ---------------------------------- *)

let identity n =
  { J.label = "t"; fingerprint = "fp"; n; base_seed = 42L; max_attempts = 2 }

let snapshot () =
  let c = C.float_codec in
  let entry i =
    { J.index = i; attempts = 1 + (i mod 2); payload = c.C.encode (float_of_int i *. 1.25) }
  in
  {
    J.identity = identity 10;
    entries = Array.map entry [| 0; 3; 4; 7; 9 |];
  }

let test_journal_roundtrip () =
  let snap = snapshot () in
  Alcotest.(check int32) "format version" 2l
    (Bytes.get_int32_le (Bytes.of_string (J.encode snap)) 8);
  match J.decode (J.encode snap) with
  | Error e -> Alcotest.failf "decode failed: %s" (J.error_to_string e)
  | Ok got ->
    Alcotest.(check string) "label" snap.J.identity.J.label got.J.identity.J.label;
    Alcotest.(check int) "n" 10 got.J.identity.J.n;
    Alcotest.(check int) "entries" 5 (Array.length got.J.entries);
    Array.iteri
      (fun k (e : J.entry) ->
        let o = got.J.entries.(k) in
        Alcotest.(check int) "index" e.J.index o.J.index;
        Alcotest.(check int) "attempts" e.J.attempts o.J.attempts;
        Alcotest.(check string) "payload" e.J.payload o.J.payload)
      snap.J.entries

let expect_error what result pred =
  match result with
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" what
  | Error e ->
    if not (pred e) then
      Alcotest.failf "%s: wrong error: %s" what (J.error_to_string e)

let test_journal_rejection () =
  let s = J.encode (snapshot ()) in
  (* Flipped payload byte: CRC catches it. *)
  let corrupt = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set corrupt mid (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x41));
  expect_error "bad CRC"
    (J.decode (Bytes.to_string corrupt))
    (function J.Corrupt _ -> true | _ -> false);
  (* Truncation. *)
  expect_error "truncated"
    (J.decode (String.sub s 0 (String.length s - 5)))
    (function J.Corrupt _ -> true | _ -> false);
  expect_error "almost empty"
    (J.decode (String.sub s 0 6))
    (function J.Corrupt _ -> true | _ -> false);
  (* Wrong magic. *)
  expect_error "bad magic"
    (J.decode ("XXXXXXXX" ^ String.sub s 8 (String.length s - 8)))
    (function J.Bad_magic _ -> true | _ -> false);
  (* Version skew is detected before the CRC is even checked. *)
  let skewed = Bytes.of_string s in
  Bytes.set_int32_le skewed 8 99l;
  expect_error "version skew"
    (J.decode (Bytes.to_string skewed))
    (function
      | J.Version_skew { found = 99; _ } -> true
      | _ -> false);
  (* A CRC-valid blob whose entry count exceeds the sample count is
     rejected before anything is allocated for the entries. *)
  let huge = Bytes.of_string s in
  let count_pos =
    (* magic, version, label, fingerprint, n, base_seed, max_attempts,
       bitmap *)
    8 + 4 + (4 + 1) + (4 + 2) + 4 + 8 + 4 + 2
  in
  Alcotest.(check int) "entry count field" 5
    (Int32.to_int (Bytes.get_int32_le huge count_pos));
  Bytes.set_int32_le huge count_pos 0xFFFFFFFFl;
  let body = Bytes.sub_string huge 0 (Bytes.length huge - 4) in
  Bytes.set_int32_le huge (Bytes.length huge - 4)
    (Int32.of_int (Vstat_util.Crc32.digest body));
  expect_error "entry count beyond n"
    (J.decode (Bytes.to_string huge))
    (function J.Corrupt _ -> true | _ -> false);
  (* Error payloads name the snapshot they describe: in-memory decodes
     carry the sentinel, file reads carry the offending path. *)
  expect_error "in-memory path sentinel"
    (J.decode (Bytes.to_string corrupt))
    (fun e -> String.equal (J.error_path e) J.in_memory);
  let dir = Filename.temp_file "vstat_journal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let bad_path = Filename.concat dir "torn.ckpt" in
  Out_channel.with_open_bin bad_path (fun oc ->
      Out_channel.output_string oc (Bytes.to_string corrupt));
  expect_error "file path in corrupt payload" (J.read ~path:bad_path) (fun e ->
      (match e with J.Corrupt _ -> true | _ -> false)
      && String.equal (J.error_path e) bad_path);
  expect_error "file path in IO payload"
    (J.read ~path:(Filename.concat dir "absent.ckpt"))
    (fun e ->
      (match e with J.Io _ -> true | _ -> false)
      && String.equal (J.error_path e) (Filename.concat dir "absent.ckpt"))

(* The decoder is total: every strict prefix of a valid snapshot is an
   [Error], and so is a mutated body whose CRC footer was recomputed (so
   the parser runs past the CRC check), unless the mutant is itself a
   well-formed snapshot (a flipped payload byte is one), in which case it
   must decode to exactly those bytes.  Neither may raise. *)
let test_journal_prefixes () =
  let s = J.encode (snapshot ()) in
  for len = 0 to String.length s - 1 do
    match J.decode (String.sub s 0 len) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" len
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "prefix of %d bytes raised %s" len (Printexc.to_string e)
  done

(* Two domains of one process rewriting one snapshot: every writer has its
   own temp file, so no rename loses its source and no reader sees a file
   spliced from two writes. *)
let test_concurrent_writes () =
  let path = Filename.concat (fresh_dir ()) "shared.ckpt" in
  let snap = snapshot () in
  let writer () =
    let raised = ref 0 and bad_reads = ref 0 in
    for _ = 1 to 200 do
      (try J.write ~path snap with _ -> incr raised);
      match J.read ~path with Ok _ -> () | Error _ -> incr bad_reads
    done;
    (!raised, !bad_reads)
  in
  let other = Domain.spawn writer in
  let r1, b1 = writer () in
  let r2, b2 = Domain.join other in
  Alcotest.(check int) "writes raised" 0 (r1 + r2);
  Alcotest.(check int) "reads not Ok" 0 (b1 + b2);
  Alcotest.(check (array string)) "no temp file left" [| "shared.ckpt" |]
    (Sys.readdir (Filename.dirname path))

let prop_journal_mutations =
  let s = J.encode (snapshot ()) in
  (* Mutate between the version header and the CRC footer. *)
  let body_lo = 12 and body_hi = String.length s - 4 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4)
        (pair (int_range body_lo (body_hi - 1)) (int_range 0 255)))
  in
  QCheck.Test.make ~count:2000 ~name:"mutated body: Error or canonical"
    (QCheck.make ~print:QCheck.Print.(list (pair int int)) gen)
    (fun edits ->
      let b = Bytes.of_string s in
      List.iter (fun (pos, v) -> Bytes.set b pos (Char.chr v)) edits;
      let crc = Vstat_util.Crc32.digest_sub (Bytes.to_string b) ~pos:0 ~len:body_hi in
      Bytes.set_int32_le b body_hi (Int32.of_int crc);
      let mutant = Bytes.to_string b in
      match J.decode mutant with
      | Error _ -> true
      | Ok snap -> String.equal (J.encode snap) mutant)

let test_identity_mismatch () =
  let a = identity 10 in
  (match J.check_identity ~expected:a a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self mismatch: %s" (J.error_to_string e));
  let checks =
    [
      ("label", { a with J.label = "other" });
      ("fingerprint", { a with J.fingerprint = "fp2" });
      ("sample count", { a with J.n = 11 });
      ("RNG base seed", { a with J.base_seed = 43L });
      ("retry ladder depth", { a with J.max_attempts = 1 });
    ]
  in
  List.iter
    (fun (field, found) ->
      match J.check_identity ~expected:a found with
      | Ok () -> Alcotest.failf "%s mismatch not detected" field
      | Error (J.Mismatch m) ->
        Alcotest.(check string) "mismatched field named" field m.field
      | Error e ->
        Alcotest.failf "%s: wrong error %s" field (J.error_to_string e))
    checks

(* --- codecs ------------------------------------------------------------ *)

let test_codecs () =
  let check_rt name codec v equal =
    let got = codec.C.decode (codec.C.encode v) in
    Alcotest.(check bool) (name ^ " round-trip") true (equal v got)
  in
  let feq a b = Int64.equal (bits a) (bits b) in
  check_rt "float" C.float_codec 3.14159 feq;
  check_rt "float negative zero" C.float_codec (-0.0) feq;
  check_rt "float nan" C.float_codec Float.nan feq;
  check_rt "float-array" C.float_array_codec
    [| 1.0; -2.5; Float.infinity |]
    (fun a b -> Array.for_all2 feq a b);
  check_rt "float-list" C.float_list_codec [ 0.1; 0.2 ] (fun a b ->
      List.for_all2 feq a b);
  check_rt "float-triple" C.float_triple_codec (1.0, -1.0, 0.5)
    (fun (a, b, c) (x, y, z) -> feq a x && feq b y && feq c z);
  (* Malformed payloads fail loudly, not silently. *)
  (match C.float_codec.C.decode "abc" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "short float payload accepted");
  (match C.float_array_codec.C.decode "abcdefghi" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "ragged float-array payload accepted")

(* --- runtime subset execution ------------------------------------------ *)

let test_subset () =
  let p =
    R.map_subset_attempt_samples ~jobs:1 ~n:10 ~indices:[| 2; 5; 7 |]
      ~f:(fun ~attempt:_ i -> i * 10)
      ()
  in
  Alcotest.(check int) "evaluated" 3 p.R.evaluated;
  Alcotest.(check bool) "completed" true (p.R.cause = R.Completed);
  Array.iteri
    (fun i slot ->
      let expect_some = i = 2 || i = 5 || i = 7 in
      Alcotest.(check bool)
        (Printf.sprintf "slot %d" i)
        expect_some
        (Option.is_some slot);
      match slot with
      | Some (Ok v) -> Alcotest.(check int) "value" (i * 10) v
      | Some (Error _) -> Alcotest.fail "unexpected failure"
      | None -> ())
    p.R.slots;
  (match
     R.map_subset_attempt_samples ~n:3 ~indices:[| 3 |]
       ~f:(fun ~attempt:_ i -> i)
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range index accepted");
  (* should_stop = always: nothing runs, cause says so. *)
  let stopped =
    R.map_subset_attempt_samples ~jobs:1 ~n:5
      ~indices:[| 0; 1; 2; 3; 4 |]
      ~should_stop:(fun () -> true)
      ~f:(fun ~attempt:_ i -> i)
      ()
  in
  Alcotest.(check int) "none evaluated" 0 stopped.R.evaluated;
  Alcotest.(check bool) "stopped" true (stopped.R.cause = R.Stopped)

(* --- deadline ----------------------------------------------------------- *)

let test_deadline () =
  (match D.watchdog ~seconds:0.0 with
  | exception Invalid_argument _ -> ()
  | (_ : unit -> bool) -> Alcotest.fail "zero-second watchdog accepted");
  let loose = D.watchdog ~seconds:3600.0 in
  Alcotest.(check bool) "fresh budget" false (loose ());
  let tight = D.watchdog ~seconds:1e-6 in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "expired budget" true (tight ());
  Alcotest.(check bool) "never" false (D.never ());
  Alcotest.(check bool) "combine fires on either" true
    (D.combine D.never tight ())

let test_signal_numbers () =
  (* OCaml's portable encodings are negative; exit codes need POSIX. *)
  Alcotest.(check int) "sigterm" 15 (C.os_signal_number Sys.sigterm);
  Alcotest.(check int) "sigint" 2 (C.os_signal_number Sys.sigint);
  Alcotest.(check int) "raw number passes through" 7 (C.os_signal_number 7);
  Alcotest.(check int) "unknown encoding" 0 (C.os_signal_number min_int)

(* --- the tentpole: interrupt, resume, bit-identity ---------------------- *)

let sample ~attempt:_ ~index:_ rng =
  let a = Rng.gaussian rng in
  let b = Rng.gaussian rng in
  (a *. 1.5) +. (b *. b)

let n = 40
let seed = 97

(* The uninterrupted reference, computed on the runtime core with all
   indices and no Checkpoint involved: base seed drawn once off the run's
   RNG, sample [i] on its substream at every attempt. *)
let plain ?retry ~jobs ~seed ~n f =
  let base = Int64.to_int (Rng.bits64 (Rng.create ~seed)) in
  let p =
    R.map_subset_attempt_samples ~jobs ?retry ~n
      ~indices:(Array.init n Fun.id)
      ~f:(fun ~attempt i ->
        f ~attempt ~index:i (Rng.substream ~seed:base ~index:i))
      ()
  in
  Array.of_list
    (Array.fold_right
       (fun slot acc -> match slot with Some (Ok v) -> v :: acc | _ -> acc)
       p.R.slots [])

let plain_values ~jobs = plain ~jobs ~seed ~n sample

let test_checkpointed_matches_plain () =
  let reference = plain_values ~jobs:1 in
  check_bits_array "plain jobs:4" reference (plain_values ~jobs:4);
  let dir = fresh_dir () in
  let o =
    C.run ~jobs:1
      ~settings:(C.settings ~every:7 dir)
      ~codec:C.float_codec ~label:"bit" ~rng:(Rng.create ~seed) ~n ~f:sample
      ()
  in
  Alcotest.(check bool) "complete" true (C.is_complete o);
  Alcotest.(check bool) "finished" true (o.C.cause = C.Finished);
  check_bits_array "checkpointed = plain" reference (C.values o);
  Alcotest.(check (option string)) "snapshot path"
    (Some (Filename.concat dir "bit.ckpt")) o.C.snapshot;
  (* One artifact per run: no side files, no leftover temporaries. *)
  Alcotest.(check (array string)) "dir holds only the snapshot"
    [| "bit.ckpt" |] (Sys.readdir dir)

let interrupt_then_resume ~resume_jobs () =
  let reference = plain_values ~jobs:1 in
  let dir = fresh_dir () in
  let settings = C.settings ~every:4 dir in
  (* Cut the run after ~12 samples via a deterministic "deadline". *)
  let calls = ref 0 in
  let cut () =
    incr calls;
    !calls > 12
  in
  let o1 =
    C.run ~jobs:1 ~settings ~deadline:cut ~codec:C.float_codec ~label:"kr"
      ~rng:(Rng.create ~seed) ~n ~f:sample ()
  in
  Alcotest.(check bool) "stopped early" true (o1.C.cause = C.Deadline_reached);
  Alcotest.(check bool) "partial" true (o1.C.completed < n && o1.C.completed > 0);
  (* "Restart the process": a fresh run resumes from the snapshot. *)
  let o2 =
    C.run ~jobs:resume_jobs
      ~settings:(C.settings ~every:4 ~resume:true dir)
      ~codec:C.float_codec ~label:"kr" ~rng:(Rng.create ~seed) ~n ~f:sample ()
  in
  Alcotest.(check int) "restored what was checkpointed" o1.C.completed
    o2.C.restored;
  Alcotest.(check bool) "resume completes" true (C.is_complete o2);
  check_bits_array
    (Printf.sprintf "resumed(jobs:%d) = uninterrupted" resume_jobs)
    reference (C.values o2);
  (* Resuming a finished run replays nothing. *)
  let o3 =
    C.run ~jobs:1
      ~settings:(C.settings ~resume:true dir)
      ~codec:C.float_codec ~label:"kr" ~rng:(Rng.create ~seed) ~n ~f:sample ()
  in
  Alcotest.(check int) "fully restored" n o3.C.restored;
  check_bits_array "no-op resume" reference (C.values o3)

let test_resume_rejects_mismatch () =
  let dir = fresh_dir () in
  let settings = C.settings dir in
  let run ?(label = "mm") ?(n = 10) ?(seed = 5) ~resume () =
    C.run ~jobs:1
      ~settings:{ settings with C.resume }
      ~codec:C.float_codec ~label ~rng:(Rng.create ~seed) ~n ~f:sample ()
  in
  ignore (run ~resume:false ());
  let expect_rejected what pred f =
    match f () with
    | _ -> Alcotest.failf "%s: resume unexpectedly accepted" what
    | exception J.Rejected e ->
      if not (pred e) then
        Alcotest.failf "%s: wrong rejection: %s" what (J.error_to_string e)
  in
  expect_rejected "different n"
    (function J.Mismatch { field = "sample count"; _ } -> true | _ -> false)
    (fun () -> run ~resume:true ~n:12 ());
  expect_rejected "different seed"
    (function J.Mismatch { field = "RNG base seed"; _ } -> true | _ -> false)
    (fun () -> run ~resume:true ~seed:6 ());
  (* Same label, different codec: the fingerprint catches it. *)
  expect_rejected "different codec"
    (function J.Mismatch { field = "fingerprint"; _ } -> true | _ -> false)
    (fun () ->
      C.run ~jobs:1
        ~settings:{ settings with C.resume = true }
        ~codec:C.float_array_codec ~label:"mm" ~rng:(Rng.create ~seed:5) ~n:10
        ~f:(fun ~attempt ~index rng -> [| sample ~attempt ~index rng |])
        ());
  (* A corrupted snapshot file is refused, not merged. *)
  let path = C.snapshot_path settings "mm" in
  Vstat_util.Atomic_io.write_file ~path "VSTATCKPgarbage-after-magic";
  expect_rejected "corrupt snapshot"
    (function J.Corrupt _ | J.Version_skew _ -> true | _ -> false)
    (fun () -> run ~resume:true ())

let test_retry_attempts_survive_resume () =
  (* A sample that fails on attempt 0 and succeeds on attempt 1 must keep
     its recorded attempt count through checkpoint/resume. *)
  let flaky ~attempt ~index rng =
    let v = sample ~attempt ~index rng in
    if index = 3 && attempt = 0 then failwith "transient";
    v
  in
  let retry = 2 in
  let dir = fresh_dir () in
  let calls = ref 0 in
  let cut () =
    incr calls;
    !calls > 6
  in
  let o1 =
    C.run ~jobs:1 ~retry ~settings:(C.settings ~every:2 dir) ~deadline:cut
      ~codec:C.float_codec ~label:"flaky" ~rng:(Rng.create ~seed:11) ~n:12
      ~f:flaky ()
  in
  Alcotest.(check bool) "cut early" true (o1.C.completed < 12);
  let o2 =
    C.run ~jobs:1 ~retry
      ~settings:(C.settings ~resume:true dir)
      ~codec:C.float_codec ~label:"flaky" ~rng:(Rng.create ~seed:11) ~n:12
      ~f:flaky ()
  in
  Alcotest.(check bool) "resume completes" true (C.is_complete o2);
  Alcotest.(check int) "sample 3 took two attempts" 2 o2.C.attempts.(3);
  check_bits_array "flaky resumed = uninterrupted"
    (plain ~retry ~jobs:1 ~seed:11 ~n:12 flaky)
    (C.values o2)

let test_signal_raises_interrupted () =
  (* A sentinel handler stands in for whatever the process had installed;
     the run must hand it back once it unwinds. *)
  let sentinel_hits = Atomic.make 0 in
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.incr sentinel_hits));
  let dir = fresh_dir () in
  let settings = C.settings ~every:0 dir in
  let k = 5 in
  let sample_k ~attempt ~index rng =
    if index = k then Unix.kill (Unix.getpid ()) Sys.sigusr1;
    sample ~attempt ~index rng
  in
  (match
     C.run ~jobs:1 ~settings ~signals:[ Sys.sigusr1 ] ~codec:C.float_codec
       ~label:"sig" ~rng:(Rng.create ~seed) ~n ~f:sample_k ()
   with
  | _ -> Alcotest.fail "signalled run returned instead of raising"
  | exception C.Interrupted i ->
    Alcotest.(check string) "label" "sig" i.label;
    Alcotest.(check int) "signal" 10 (C.os_signal_number i.signal);
    Alcotest.(check int) "n" n i.n;
    Alcotest.(check bool) "stopped after sample k" true
      (i.completed > k && i.completed < n);
    let path = C.snapshot_path settings "sig" in
    Alcotest.(check (option string)) "snapshot named" (Some path) i.snapshot;
    (match J.read ~path with
    | Error e -> Alcotest.failf "snapshot unreadable: %s" (J.error_to_string e)
    | Ok snap ->
      Alcotest.(check int) "snapshot holds the completed samples"
        i.completed (Array.length snap.J.entries)));
  Alcotest.(check int) "sentinel untouched during the run" 0
    (Atomic.get sentinel_hits);
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  let rec wait tries =
    if Atomic.get sentinel_hits = 0 && tries > 0 then begin
      Unix.sleepf 0.001;
      wait (tries - 1)
    end
  in
  wait 1000;
  Alcotest.(check int) "old handler restored" 1 (Atomic.get sentinel_hits);
  Sys.set_signal Sys.sigusr1 Sys.Signal_default

let test_settings_without_codec () =
  let with_codec = fresh_dir () and without = fresh_dir () in
  let o_codec =
    C.run ~jobs:1 ~settings:(C.settings ~every:3 with_codec)
      ~codec:C.float_codec ~label:"nc" ~rng:(Rng.create ~seed) ~n ~f:sample ()
  in
  let o_plain =
    C.run ~jobs:1 ~settings:(C.settings ~every:3 without) ~label:"nc"
      ~rng:(Rng.create ~seed) ~n ~f:sample ()
  in
  check_bits_array "no codec = codec" (C.values o_codec) (C.values o_plain);
  Alcotest.(check (option string)) "no snapshot" None o_plain.C.snapshot;
  Alcotest.(check (array string)) "no file written" [||] (Sys.readdir without);
  Alcotest.(check (array string)) "codec run journaled" [| "nc.ckpt" |]
    (Sys.readdir with_codec)

(* A snapshot directory below a regular file cannot be created.  The
   failed flush is the run's error, typed, and never a sample's: no
   sample is retried, and the run stops instead of computing on. *)
let test_blocked_dir () =
  let blocker = Filename.concat (fresh_dir ()) "blocker" in
  Out_channel.with_open_bin blocker ignore;
  let retried = Atomic.make 0 and evaluated = Atomic.make 0 in
  let f ~attempt ~index rng =
    Atomic.incr evaluated;
    if attempt > 0 then Atomic.incr retried;
    sample ~attempt ~index rng
  in
  (match
     C.run ~jobs:2 ~retry:3
       ~settings:(C.settings ~every:8 (Filename.concat blocker "x"))
       ~codec:C.float_codec ~label:"blocked" ~rng:(Rng.create ~seed) ~n:64 ~f
       ()
   with
  | _ -> Alcotest.fail "blocked snapshot dir accepted"
  | exception J.Rejected (J.Io { path; _ }) ->
    Alcotest.(check string) "path named"
      (Filename.concat (Filename.concat blocker "x") "blocked.ckpt")
      path
  | exception e -> Alcotest.failf "untyped failure: %s" (Printexc.to_string e));
  Alcotest.(check int) "no sample retried" 0 (Atomic.get retried);
  Alcotest.(check bool) "stopped early" true (Atomic.get evaluated < 64)

(* --- the flush schedule ------------------------------------------------- *)

(* Flush when [dirty >= max every (held / 8)]: the rule, counted. *)
let scheduled_flushes ~n ~every =
  let rec go held dirty acc =
    if held = n then acc
    else
      let held = held + 1 and dirty = dirty + 1 in
      if dirty >= Int.max every (held / 8) then go held 0 (acc + 1)
      else go held dirty acc
  in
  go 0 0 0

let knee_n = 4096
let knee_every = 8

let snapshot_entries path =
  match J.read ~path with
  | Ok snap -> Array.length snap.J.entries
  | Error e -> Alcotest.failf "snapshot unreadable: %s" (J.error_to_string e)

(* One jobs:1 run observed from inside the sample function: when sample
   [c] starts, exactly [c] samples are recorded.  [on_progress] fires once
   per pool chunk (512 samples here), too coarse to see single flushes.
   The snapshot's size grows with its entry count, so a size change is a
   new flush.  Returns the entries on disk at every c, and the final
   snapshot's entry count. *)
let observed_schedule =
  lazy
    (let settings = C.settings ~every:knee_every (fresh_dir ()) in
     let path = C.snapshot_path settings "knee" in
     let seen = Array.make knee_n 0 in
     let last_size = ref (-1) and last_entries = ref 0 in
     let f ~attempt ~index rng =
       (match (Unix.stat path).Unix.st_size with
       | size when size <> !last_size ->
         last_size := size;
         last_entries := snapshot_entries path
       | _ -> ()
       | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
       seen.(index) <- !last_entries;
       sample ~attempt ~index rng
     in
     let o =
       C.run ~jobs:1 ~settings ~codec:C.float_codec ~label:"knee"
         ~rng:(Rng.create ~seed) ~n:knee_n ~f ()
     in
     Alcotest.(check bool) "complete" true (C.is_complete o);
     (seen, snapshot_entries path))

let test_crash_loss_bound () =
  let seen, final = Lazy.force observed_schedule in
  Array.iteri
    (fun c entries ->
      let bound = Int.max knee_every (c / 8) in
      if entries <= c - bound then
        Alcotest.failf "at %d samples the snapshot holds %d (loss bound %d)"
          c entries bound)
    seen;
  Alcotest.(check int) "final flush holds every sample" knee_n final

let test_flush_count () =
  let seen, final = Lazy.force observed_schedule in
  let states = ref 0 and prev = ref 0 in
  Array.iter
    (fun entries ->
      if entries <> !prev then begin
        incr states;
        prev := entries
      end)
    seen;
  if final <> !prev then incr states;
  Alcotest.(check int) "the rule's count" 39
    (scheduled_flushes ~n:knee_n ~every:knee_every);
  Alcotest.(check int) "distinct snapshot states" (39 + 1) !states

(* A crash at c = 3000, past the [8 * every] knee: the snapshot on disk is
   the last periodic flush, and resuming from it recomputes the lost tail
   bit-identically. *)
let test_kill_past_knee ~resume_jobs () =
  let reference = plain ~jobs:1 ~seed ~n:knee_n sample in
  let settings = C.settings ~every:knee_every (fresh_dir ()) in
  let path = C.snapshot_path settings "crash" in
  let on_disk = ref None in
  let f ~attempt ~index rng =
    if index = 3000 then
      on_disk := Some (Vstat_util.Atomic_io.read_file ~path);
    sample ~attempt ~index rng
  in
  ignore
    (C.run ~jobs:1 ~settings ~codec:C.float_codec ~label:"crash"
       ~rng:(Rng.create ~seed) ~n:knee_n ~f ());
  (match !on_disk with
  | Some (Ok blob) -> Vstat_util.Atomic_io.write_file ~path blob
  | _ -> Alcotest.fail "no snapshot on disk at 3000 samples");
  let lost = 3000 - snapshot_entries path in
  Alcotest.(check bool) "some samples lost, within the bound" true
    (lost > 0 && lost < 3000 / 8);
  let o =
    C.run ~jobs:resume_jobs
      ~settings:{ settings with C.resume = true }
      ~codec:C.float_codec ~label:"crash" ~rng:(Rng.create ~seed) ~n:knee_n
      ~f:sample ()
  in
  Alcotest.(check int) "restored" (3000 - lost) o.C.restored;
  check_bits_array
    (Printf.sprintf "crashed at 3000, resumed (jobs:%d) = uninterrupted"
       resume_jobs)
    reference (C.values o)

let test_caller_fingerprint () =
  (* vstatd's canonical specs are '|'-separated and may carry "codec:"
     themselves; only the suffix the driver appends is stripped. *)
  let fingerprint = "v1|kind=idsat|pipe=codec:float|x|codec:" in
  let dir = fresh_dir () in
  let settings = C.settings dir in
  ignore
    (C.run ~jobs:1 ~settings ~fingerprint ~codec:C.float_codec ~label:"fp"
       ~rng:(Rng.create ~seed) ~n:3 ~f:sample ());
  match J.read ~path:(C.snapshot_path settings "fp") with
  | Error e -> Alcotest.failf "snapshot unreadable: %s" (J.error_to_string e)
  | Ok snap ->
    Alcotest.(check string) "round trip" fingerprint
      (C.caller_fingerprint snap.J.identity)

let () =
  Alcotest.run "checkpoint"
    [
      ( "journal",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32;
          Alcotest.test_case "snapshot round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_journal_rejection;
          Alcotest.test_case "every strict prefix rejected" `Quick
            test_journal_prefixes;
          QCheck_alcotest.to_alcotest prop_journal_mutations;
          Alcotest.test_case "identity mismatch" `Quick test_identity_mismatch;
          Alcotest.test_case "concurrent same-path writes" `Quick
            test_concurrent_writes;
          Alcotest.test_case "codecs" `Quick test_codecs;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "subset execution" `Quick test_subset;
          Alcotest.test_case "deadline watchdog" `Quick test_deadline;
          Alcotest.test_case "signal numbers" `Quick test_signal_numbers;
        ] );
      ( "resume",
        [
          Alcotest.test_case "checkpointed = plain" `Quick
            test_checkpointed_matches_plain;
          Alcotest.test_case "interrupt/resume jobs:1" `Quick
            (interrupt_then_resume ~resume_jobs:1);
          Alcotest.test_case "interrupt/resume jobs:4" `Quick
            (interrupt_then_resume ~resume_jobs:4);
          Alcotest.test_case "mismatch rejected" `Quick
            test_resume_rejects_mismatch;
          Alcotest.test_case "retry ladder survives resume" `Quick
            test_retry_attempts_survive_resume;
          Alcotest.test_case "signal raises Interrupted" `Quick
            test_signal_raises_interrupted;
          Alcotest.test_case "settings without codec" `Quick
            test_settings_without_codec;
          Alcotest.test_case "caller fingerprint" `Quick
            test_caller_fingerprint;
          Alcotest.test_case "blocked snapshot dir is a typed Io error" `Quick
            test_blocked_dir;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "crash-loss bound" `Quick test_crash_loss_bound;
          Alcotest.test_case "flush count" `Quick test_flush_count;
          Alcotest.test_case "crash past the knee, resume jobs:1" `Quick
            (test_kill_past_knee ~resume_jobs:1);
          Alcotest.test_case "crash past the knee, resume jobs:4" `Quick
            (test_kill_past_knee ~resume_jobs:4);
        ] );
    ]
