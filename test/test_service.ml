(* Wire-protocol codec and service-layer fault-injection tests.

   The codec contract under test: encode/decode round-trips every message
   (checked on encoded bytes, so float payloads compare bit-exactly
   without any float equality), strict prefixes and trailing junk are
   rejected with typed errors, and no input — however hostile — makes a
   decoder raise. *)

module P = Vstat_service.Protocol
module S = Vstat_service.Service
module FQ = Vstat_service.Fair_queue
module FS = Vstat_device.Fault_inject.Service

(* --- generators -------------------------------------------------------- *)

let gen_kind =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map
        (fun fanout -> P.Inverter_tpd { fanout })
        (QCheck.Gen.int_range 1 16);
      QCheck.Gen.map (fun read -> P.Sram_snm { read }) QCheck.Gen.bool;
      QCheck.Gen.return P.Idsat;
    ]

let gen_spec =
  let open QCheck.Gen in
  gen_kind >>= fun kind ->
  int_range 1 100_000 >>= fun n ->
  int >>= fun seed ->
  float_range 0.3 1.5 >>= fun vdd ->
  int_range 1 16 >>= fun retry -> return { P.kind; n; seed; vdd; retry }

let gen_id = QCheck.Gen.string_size ~gen:QCheck.Gen.printable (QCheck.Gen.int_range 0 24)

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      (gen_spec >>= fun spec ->
       float_range (-1.0) 60.0 >>= fun deadline_s ->
       gen_id >>= fun client -> return (P.Submit { spec; deadline_s; client }));
      map (fun id -> P.Result { id }) gen_id;
      return P.Health;
      return P.Shutdown;
    ]

let gen_float_wild =
  (* Bit-pattern floats: exercises negatives, subnormals, infinities and
     NaN payloads through the codec (values travel as raw IEEE bits). *)
  QCheck.Gen.map Int64.float_of_bits QCheck.Gen.int64

let gen_summary =
  let open QCheck.Gen in
  gen_id >>= fun id ->
  int_range 0 5000 >>= fun n ->
  int_range 0 5000 >>= fun completed ->
  int_range 0 100 >>= fun failed ->
  gen_float_wild >>= fun mean ->
  gen_float_wild >>= fun std ->
  gen_float_wild >>= fun ci_lo ->
  gen_float_wild >>= fun ci_hi ->
  bool >>= fun partial ->
  gen_id >>= fun cause ->
  bool >>= fun cached ->
  float_range 0.0 100.0 >>= fun wall_s ->
  int_range 0 100 >>= fun retried ->
  array_size (int_range 0 40) gen_float_wild >>= fun values ->
  return
    {
      P.id;
      n;
      completed;
      failed;
      mean;
      std;
      ci_lo;
      ci_hi;
      partial;
      cause;
      cached;
      wall_s;
      retried;
      values;
    }

let gen_response =
  let open QCheck.Gen in
  oneof
    [
      (gen_id >>= fun id ->
       bool >>= fun cached -> return (P.Accepted { id; cached }));
      map
        (fun reason -> P.Rejected { reason })
        (oneof
           [
             (int_range 0 100 >>= fun queued ->
              int_range 1 100 >>= fun queue_max ->
              return (P.Queue_full { queued; queue_max }));
             (float_range 0.0 1000.0 >>= fun estimated_wait_s ->
              float_range 0.0 1000.0 >>= fun deadline_s ->
              return (P.Over_deadline { estimated_wait_s; deadline_s }));
             map (fun detail -> P.Bad_request { detail }) gen_id;
           ]);
      (gen_id >>= fun id ->
       int_range 1 16 >>= fun attempts ->
       gen_id >>= fun detail -> return (P.Quarantined { id; attempts; detail }));
      map (fun s -> P.Job_result s) gen_summary;
      map (fun id -> P.Unknown_id { id }) gen_id;
      (float_range 0.0 1e6 >>= fun uptime_s ->
       int_range 0 100 >>= fun queued ->
       int_range 0 8 >>= fun running ->
       int_range 0 1000 >>= fun finished ->
       int_range 0 1000 >>= fun rejected ->
       int_range 0 1000 >>= fun cache_hits ->
       int_range 0 1000 >>= fun served ->
       int_range 0 100 >>= fun requeued ->
       int_range 0 100 >>= fun quarantined ->
       int_range 0 100 >>= fun worker_crashes ->
       int_range 0 100 >>= fun worker_hangs ->
       int_range 0 1_000_000 >>= fun state_bytes ->
       int_range 0 100 >>= fun evicted ->
       list_size (int_range 0 8)
         (int_range 0 7 >>= fun wid ->
          int_range 1 50 >>= fun generation ->
          opt gen_id >>= fun busy ->
          float_range 0.0 60.0 >>= fun heartbeat_age_s ->
          int_range 0 500 >>= fun jobs_done ->
          return
            { P.wid; generation; busy; heartbeat_age_s; jobs_done })
       >>= fun workers ->
       return
         (P.Health_report
            {
              uptime_s;
              queued;
              running;
              finished;
              rejected;
              cache_hits;
              served;
              requeued;
              quarantined;
              worker_crashes;
              worker_hangs;
              state_bytes;
              evicted;
              workers;
            }));
      return P.Shutting_down;
    ]

(* --- round-trip properties --------------------------------------------- *)

(* Equality through re-encoding: two messages are the same iff their
   encodings are byte-equal, which compares float fields bit-exactly. *)
let roundtrips encode decode msg =
  let enc = encode msg in
  match decode enc with
  | Error _ -> false
  | Ok msg' -> String.equal enc (encode msg')

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request: decode (encode r) = r" ~count:500
    (QCheck.make gen_request)
    (roundtrips P.encode_request P.decode_request)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response: decode (encode r) = r" ~count:500
    (QCheck.make gen_response)
    (roundtrips P.encode_response P.decode_response)

(* Every strict prefix of a valid payload must be rejected typed — the
   decoder reads identical bytes until a bounds check fails, so the only
   acceptable outcomes are Truncated (or Oversized for a cut that lands
   inside a length field). *)
let prefix_rejected encode decode msg k01 =
  let enc = encode msg in
  let len = String.length enc in
  if len = 0 then true
  else begin
    let cut = Int.min (len - 1) (int_of_float (k01 *. Float.of_int len)) in
    match decode (String.sub enc 0 cut) with
    | Error (P.Truncated _ | P.Oversized _) -> true
    | Error _ | Ok _ -> false
  end

let prop_request_prefix =
  QCheck.Test.make ~name:"request: strict prefixes rejected typed" ~count:500
    QCheck.(make Gen.(pair gen_request (float_range 0.0 1.0)))
    (fun (r, k) -> prefix_rejected P.encode_request P.decode_request r k)

let prop_response_prefix =
  QCheck.Test.make ~name:"response: strict prefixes rejected typed" ~count:500
    QCheck.(make Gen.(pair gen_response (float_range 0.0 1.0)))
    (fun (r, k) -> prefix_rejected P.encode_response P.decode_response r k)

let prop_trailing =
  QCheck.Test.make ~name:"trailing junk rejected typed" ~count:300
    QCheck.(make Gen.(pair gen_request (string_size (Gen.int_range 1 16))))
    (fun (r, junk) ->
      match P.decode_request (P.encode_request r ^ junk) with
      | Error (P.Trailing _) -> true
      | Error _ | Ok _ -> false)

(* Hostile input: arbitrary bytes never escape as an exception. *)
let never_raises decode s =
  match decode s with Ok _ -> true | Error _ -> true | exception _ -> false

let prop_garbage_request =
  QCheck.Test.make ~name:"request: garbage never raises" ~count:1000
    QCheck.(string_gen Gen.char)
    (never_raises P.decode_request)

let prop_garbage_response =
  QCheck.Test.make ~name:"response: garbage never raises" ~count:1000
    QCheck.(string_gen Gen.char)
    (never_raises P.decode_response)

let prop_canonical_roundtrip =
  QCheck.Test.make ~name:"canonical spec string round-trips" ~count:500
    (QCheck.make gen_spec)
    (fun spec ->
      let canonical = P.spec_canonical ~pipeline:"42:300" spec in
      match P.spec_of_canonical canonical with
      | Error _ -> false
      | Ok spec' ->
        (* Compare through the binary codec: bit-exact on vdd. *)
        String.equal
          (P.encode_request (P.Submit { spec; deadline_s = 0.0; client = "c" }))
          (P.encode_request
             (P.Submit { spec = spec'; deadline_s = 0.0; client = "c" }))
        && String.equal (Option.get (P.canonical_pipeline canonical)) "42:300")

(* --- framing ----------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = String.init 100_000 (fun i -> Char.chr (i land 0xFF)) in
      (match P.write_frame a payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_frame: %s" (P.error_to_string e));
      match P.read_frame b with
      | Ok got -> Alcotest.(check bool) "payload" true (String.equal got payload)
      | Error e -> Alcotest.failf "read_frame: %s" (P.error_to_string e))

let test_frame_oversized_write () =
  with_socketpair (fun a _ ->
      (* One byte past the 4 MiB frame cap. *)
      match P.write_frame a (String.make ((4 * 1024 * 1024) + 1) 'x') with
      | Error (P.Oversized _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e)
      | Ok () -> Alcotest.fail "oversized frame accepted")

let test_frame_oversized_read () =
  with_socketpair (fun a b ->
      (* A hostile 512 MiB length prefix must be refused before any
         allocation, not trusted. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 0x20000000l;
      let _ = Unix.write a header 0 4 in
      Unix.close a;
      match P.read_frame b with
      | Error (P.Oversized _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e)
      | Ok _ -> Alcotest.fail "oversized prefix accepted")

let test_frame_eof_mid_payload () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 64l;
      let _ = Unix.write a header 0 4 in
      let _ = Unix.write_substring a "short" 0 5 in
      Unix.close a;
      match P.read_frame b with
      | Error (P.Truncated _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e)
      | Ok _ -> Alcotest.fail "torn frame accepted")

let test_bad_version () =
  let enc = P.encode_request P.Health in
  let b = Bytes.of_string enc in
  Bytes.set_int32_le b 0 99l;
  match P.decode_request (Bytes.to_string b) with
  | Error (P.Bad_version { found = 99; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e)
  | Ok _ -> Alcotest.fail "version skew accepted"

(* --- service-layer fault injection ------------------------------------- *)

let base_cfg =
  {
    FS.rate = 0.3;
    abort_frac = 0.5;
    crash_frac = 0.0;
    hang_frac = 0.0;
    stall_s = 0.01;
    hang_s = 0.5;
    seed = 7;
  }

let test_service_plan_deterministic () =
  let cfg = base_cfg in
  let fired = ref 0 and aborts = ref 0 in
  for key = 0 to 9_999 do
    (match FS.plan cfg ~key with
    | None -> ()
    | Some a -> (
      incr fired;
      (match a with
      | FS.Abort -> incr aborts
      | FS.Stall _ -> ()
      | FS.Crash | FS.Hang _ -> Alcotest.fail "zero-fraction kind fired");
      (* replay: pure function of (config, key) *)
      match (FS.plan cfg ~key, a) with
      | Some (FS.Stall _), FS.Stall _ | Some FS.Abort, FS.Abort -> ()
      | _ -> Alcotest.fail "plan not deterministic"))
  done;
  let frac = Float.of_int !fired /. 10_000.0 in
  Alcotest.(check bool) "rate respected" true (frac > 0.25 && frac < 0.35);
  let abort_frac = Float.of_int !aborts /. Float.of_int !fired in
  Alcotest.(check bool) "abort split" true (abort_frac > 0.4 && abort_frac < 0.6)

let test_service_plan_chaos_split () =
  (* Equal quarters: each kind's observed share stays near 0.25. *)
  let cfg =
    {
      base_cfg with
      FS.rate = 1.0;
      abort_frac = 0.25;
      crash_frac = 0.25;
      hang_frac = 0.25;
    }
  in
  let stalls = ref 0 and aborts = ref 0 and crashes = ref 0 and hangs = ref 0 in
  for key = 0 to 9_999 do
    match FS.plan cfg ~key with
    | Some (FS.Stall _) -> incr stalls
    | Some FS.Abort -> incr aborts
    | Some FS.Crash -> incr crashes
    | Some (FS.Hang s) ->
      if not (Float.equal s cfg.FS.hang_s) then
        Alcotest.fail "hang duration not propagated";
      incr hangs
    | None -> Alcotest.fail "rate 1 did not fire"
  done;
  List.iter
    (fun (label, count) ->
      let share = Float.of_int !count /. 10_000.0 in
      if share < 0.2 || share > 0.3 then
        Alcotest.failf "%s share %.3f outside [0.2, 0.3]" label share)
    [ ("stall", stalls); ("abort", aborts); ("crash", crashes); ("hang", hangs) ]

let test_service_plan_edges () =
  let none = { base_cfg with FS.rate = 0.0 } in
  let all = { base_cfg with FS.rate = 1.0; abort_frac = 1.0 } in
  for key = 0 to 99 do
    (match FS.plan none ~key with
    | None -> ()
    | Some _ -> Alcotest.fail "rate 0 fired");
    match FS.plan all ~key with
    | Some FS.Abort -> ()
    | _ -> Alcotest.fail "rate 1 abort_frac 1 did not abort"
  done;
  (match FS.plan { none with FS.rate = Float.nan } ~key:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN rate accepted");
  match
    FS.plan { base_cfg with FS.abort_frac = 0.6; crash_frac = 0.6 } ~key:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fractions summing past 1 accepted"

let test_service_parse_spec () =
  let ok s check =
    match FS.parse_spec s with
    | Ok cfg -> check cfg
    | Error m -> Alcotest.failf "parse %S failed: %s" s m
  in
  ok "0.1" (fun c ->
      Alcotest.(check bool) "mix default" true
        (c.FS.rate > 0.09 && c.FS.rate < 0.11 && c.FS.abort_frac > 0.4));
  ok "0.2:stall" (fun c ->
      Alcotest.(check bool) "stall" true (c.FS.abort_frac < 0.01));
  ok "0.2:abort" (fun c ->
      Alcotest.(check bool) "abort" true (c.FS.abort_frac > 0.99));
  ok "0.2:stall:0.5" (fun c ->
      Alcotest.(check bool) "stall secs" true
        (c.FS.stall_s > 0.49 && c.FS.stall_s < 0.51));
  ok "0.2:crash" (fun c ->
      Alcotest.(check bool) "crash" true (c.FS.crash_frac > 0.99));
  ok "0.2:hang:0.4" (fun c ->
      Alcotest.(check bool) "hang secs" true
        (c.FS.hang_frac > 0.99 && c.FS.hang_s > 0.39 && c.FS.hang_s < 0.41));
  ok "0.8:chaos" (fun c ->
      Alcotest.(check bool) "chaos quarters" true
        (c.FS.abort_frac > 0.24 && c.FS.abort_frac < 0.26
        && c.FS.crash_frac > 0.24 && c.FS.crash_frac < 0.26
        && c.FS.hang_frac > 0.24 && c.FS.hang_frac < 0.26));
  List.iter
    (fun bad ->
      match FS.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ "x"; "1.5"; "-0.1"; "0.1:frob"; "0.1:stall:-1"; "0.1:hang:x"; "" ]

(* --- admission validation --------------------------------------------- *)

let test_validate () =
  let base =
    { P.kind = P.Idsat; n = 100; seed = 1; vdd = 1.0; retry = 1 }
  in
  (match S.validate base with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid spec rejected: %s" m);
  List.iter
    (fun (label, spec) ->
      match S.validate spec with
      | Ok () -> Alcotest.failf "invalid spec accepted: %s" label
      | Error _ -> ())
    [
      ("n=0", { base with P.n = 0 });
      ("n huge", { base with P.n = 1_000_000 });
      ("retry=0", { base with P.retry = 0 });
      ("retry=99", { base with P.retry = 99 });
      ("vdd low", { base with P.vdd = 0.1 });
      ("vdd nan", { base with P.vdd = Float.nan });
      ("fanout=0", { base with P.kind = P.Inverter_tpd { fanout = 0 } });
    ]

let test_state_dir_is_file () =
  (* A state directory that names a regular file fails at [create], typed,
     before any pipeline is built. *)
  let file = Filename.temp_file "vstat_state" ".file" in
  let cfg =
    {
      S.socket_path = Filename.concat (Filename.dirname file) "vstatd.sock";
      state_dir = file;
      queue_max = 32;
      workers = 1;
      jobs = 1;
      poison_retries = 3;
      hang_timeout_s = 30.0;
      state_max_bytes = 0;
      pipeline_seed = 42;
      mc_per_geometry = 300;
      inject = None;
    }
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      match S.create cfg with
      | _ -> Alcotest.fail "create accepted a regular file as state_dir"
      | exception Invalid_argument _ -> ())

let test_estimate_wait () =
  let near a b = Float.abs (a -. b) < 1e-12 in
  Alcotest.(check bool) "single worker" true
    (near (S.estimate_wait_s ~ewma_sample_s:0.01 ~backlog_samples:400 ~workers:1) 4.0);
  Alcotest.(check bool) "pool divides" true
    (near (S.estimate_wait_s ~ewma_sample_s:0.01 ~backlog_samples:400 ~workers:4) 1.0);
  Alcotest.(check bool) "workers clamped to 1" true
    (near (S.estimate_wait_s ~ewma_sample_s:0.01 ~backlog_samples:400 ~workers:0) 4.0);
  Alcotest.(check bool) "cold ewma is free" true
    (near (S.estimate_wait_s ~ewma_sample_s:0.0 ~backlog_samples:1000 ~workers:2) 0.0)

(* --- fair queue --------------------------------------------------------- *)

(* K clients each push a burst, then everything is popped.  Round-robin
   fairness: at every pop prefix, any two clients that still hold pending
   jobs have been served within one job of each other; and the pop order
   restricted to one client is that client's push order (per-client
   FIFO). *)
let prop_fair_queue_skew =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 5) (int_range 0 12)
      >>= fun sizes -> return sizes)
  in
  QCheck.Test.make ~name:"fair queue: bounded skew + per-client FIFO"
    ~count:300 (QCheck.make gen) (fun sizes ->
      let q = FQ.create () in
      let clients = List.mapi (fun i m -> (Printf.sprintf "c%d" i, m)) sizes in
      List.iter
        (fun (c, m) ->
          for j = 0 to m - 1 do
            FQ.push q ~client:c (c, j)
          done)
        clients;
      let total = List.fold_left (fun a (_, m) -> a + m) 0 clients in
      if FQ.length q <> total then false
      else begin
        let served = Hashtbl.create 8 in
        let count c = Option.value (Hashtbl.find_opt served c) ~default:0 in
        let ok = ref true in
        for _ = 1 to total do
          match FQ.pop q with
          | None -> ok := false
          | Some (c, j) ->
            (* per-client FIFO: jobs arrive in push order *)
            if j <> count c then ok := false;
            Hashtbl.replace served c (count c + 1);
            (* bounded skew among clients that still hold jobs *)
            let pending_counts =
              List.filter_map
                (fun (d, m) -> if m - count d > 0 then Some (count d) else None)
                clients
            in
            (match pending_counts with
            | [] -> ()
            | x :: rest ->
              let mn = List.fold_left Int.min x rest in
              let mx = List.fold_left Int.max x rest in
              if mx - mn > 1 then ok := false)
        done;
        !ok && FQ.length q = 0
      end)

let test_fair_queue_push_front () =
  let q = FQ.create () in
  FQ.push q ~client:"a" 1;
  FQ.push q ~client:"a" 2;
  FQ.push q ~client:"b" 10;
  Alcotest.(check int) "queued" 3 (FQ.length q);
  (match FQ.pop q with
  | Some 1 -> ()
  | _ -> Alcotest.fail "expected a's first job");
  (* The requeue path: a's victim job goes back at the front of a's own
     line, without jumping b's turn in the rotation. *)
  FQ.push_front q ~client:"a" 1;
  let drained = List.init 3 (fun _ -> FQ.pop q) in
  (match drained with
  | [ Some 10; Some 1; Some 2 ] -> ()
  | _ -> Alcotest.fail "push_front broke rotation or per-client order");
  Alcotest.(check int) "empty" 0 (FQ.length q)

let () =
  Alcotest.run "vstat_service"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_prefix;
          QCheck_alcotest.to_alcotest prop_response_prefix;
          QCheck_alcotest.to_alcotest prop_trailing;
          QCheck_alcotest.to_alcotest prop_garbage_request;
          QCheck_alcotest.to_alcotest prop_garbage_response;
          QCheck_alcotest.to_alcotest prop_canonical_roundtrip;
        ] );
      ( "framing",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized write refused" `Quick
            test_frame_oversized_write;
          Alcotest.test_case "oversized prefix refused" `Quick
            test_frame_oversized_read;
          Alcotest.test_case "EOF mid-payload refused" `Quick
            test_frame_eof_mid_payload;
          Alcotest.test_case "version skew refused" `Quick test_bad_version;
        ] );
      ( "fault_inject.service",
        [
          Alcotest.test_case "plan deterministic, rates respected" `Quick
            test_service_plan_deterministic;
          Alcotest.test_case "chaos kind split" `Quick
            test_service_plan_chaos_split;
          Alcotest.test_case "edge rates and validation" `Quick
            test_service_plan_edges;
          Alcotest.test_case "spec parsing" `Quick test_service_parse_spec;
        ] );
      ( "admission",
        [
          Alcotest.test_case "spec validation" `Quick test_validate;
          Alcotest.test_case "state_dir naming a file fails at create"
            `Quick test_state_dir_is_file;
          Alcotest.test_case "wait estimate divides by pool width" `Quick
            test_estimate_wait;
        ] );
      ( "fair_queue",
        [
          QCheck_alcotest.to_alcotest prop_fair_queue_skew;
          Alcotest.test_case "push_front requeues without jumping turns"
            `Quick test_fair_queue_push_front;
        ] );
    ]
