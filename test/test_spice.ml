(* Tests for the SPICE-deck front end. *)

module P = Vstat_circuit.Spice_parser
module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- values --- *)

(* A value as the deck parser reads it: the resistance of a one-resistor
   deck, whose value sits on line 2. *)
let parse_value s =
  match N.elements (P.parse_string ("values\nR1 a 0 " ^ s ^ "\n")).netlist with
  | [ N.Resistor { ohms; _ } ] -> ohms
  | _ -> Alcotest.fail "expected one resistor"

let test_parse_value () =
  check_float "plain" 42.0 (parse_value "42");
  check_float "exponent" 1e-9 (parse_value "1e-9");
  check_float ~eps:1e-12 "kilo" 2500.0 (parse_value "2.5k");
  check_float ~eps:1e-24 "pico" 10e-12 (parse_value "10p");
  check_float ~eps:1e-27 "femto" 2e-15 (parse_value "2f");
  check_float "meg" 3e6 (parse_value "3meg");
  check_float ~eps:1e-15 "milli" 5e-3 (parse_value "5m");
  check_float ~eps:1e-18 "nano" 7e-9 (parse_value "7n");
  check_float ~eps:1e-12 "micro" 9e-6 (parse_value "9u");
  check_float "giga" 1e9 (parse_value "1g");
  check_float "tera" 4e12 (parse_value "4t")

(* The full SPICE scale-factor contract: MEG/MIL matched before the
   single-letter factors (so "3MEG" cannot be shadowed into milli), case
   insensitivity, and trailing unit letters ignored. *)
let test_parse_value_suffix_table () =
  check_float "MEG upper" 3e6 (parse_value "3MEG");
  check_float "Meg mixed" 3e6 (parse_value "3Meg");
  check_float ~eps:1e-12 "megohm unit" 2e6 (parse_value "2megohm");
  check_float ~eps:1e-9 "mil" 25.4e-6 (parse_value "1mil");
  check_float ~eps:1e-24 "pF unit" 10e-12 (parse_value "10pF");
  check_float ~eps:1e-12 "kOhm unit" 1e3 (parse_value "1kOhm");
  check_float ~eps:1e-15 "mV unit" 5e-3 (parse_value "5mV");
  check_float ~eps:1e-18 "ns unit" 2e-9 (parse_value "2ns");
  check_float "bare unit V" 10.0 (parse_value "10V");
  check_float "bare unit Hz" 60.0 (parse_value "60Hz");
  check_float "K upper" 1e3 (parse_value "1K");
  check_float ~eps:1e-27 "F upper femto" 2e-15 (parse_value "2F");
  check_float "whitespace" 5.0 (parse_value "  5  ")

let test_parse_value_malformed () =
  let expect_error s =
    match parse_value s with
    | v -> Alcotest.fail (Printf.sprintf "expected Parse_error for %S, got %g" s v)
    | exception P.Parse_error { line = 2; _ } -> ()
  in
  expect_error "abc";
  expect_error "";
  expect_error "1.2.3";
  expect_error "4k2"

(* --- deck structure --- *)

let divider_deck =
  "resistor divider\n\
   V1 top 0 DC 10\n\
   R1 top mid 1k\n\
   R2 mid 0 3k\n\
   .end\n"

let test_parse_divider () =
  let deck = P.parse_string divider_deck in
  Alcotest.(check string) "title" "resistor divider" deck.title;
  Alcotest.(check int) "nodes" 2 (N.node_count deck.netlist);
  Alcotest.(check int) "elements" 3 (List.length (N.elements deck.netlist));
  let eng = E.compile deck.netlist in
  let op = E.dc eng in
  let mid =
    match List.assoc_opt "mid" (N.all_nodes deck.netlist) with
    | Some n -> n
    | None -> Alcotest.fail "mid node missing"
  in
  check_float ~eps:1e-6 "divider solves" 7.5 (E.voltage eng op mid)

let test_comments_and_continuations () =
  let deck =
    P.parse_string
      "title\n\
       * a comment line\n\
       R1 a 0 $ trailing comment\n\
       + 2k\n\
       V1 a 0 DC 1 $ more\n"
  in
  Alcotest.(check int) "two elements" 2 (List.length (N.elements deck.netlist));
  match N.elements deck.netlist with
  | [ N.Resistor { ohms; _ }; N.Vsource _ ] -> check_float "joined value" 2000.0 ohms
  | _ -> Alcotest.fail "unexpected element shapes"

let test_case_insensitive_nodes () =
  let deck = P.parse_string "t\nR1 OUT 0 1k\nV1 out 0 DC 1\n" in
  (* OUT and out are the same node. *)
  Alcotest.(check int) "one node" 1 (N.node_count deck.netlist)

let test_pulse_source () =
  let deck =
    P.parse_string "t\nV1 a 0 PULSE(0 0.9 20p 10p 10p 60p 200p)\nR1 a 0 1k\n"
  in
  match N.elements deck.netlist with
  | [ N.Vsource { wave = W.Pulse p; _ }; _ ] ->
    check_float ~eps:1e-15 "high" 0.9 p.high;
    check_float ~eps:1e-24 "delay" 20e-12 p.delay;
    check_float ~eps:1e-24 "period" 200e-12 p.period
  | _ -> Alcotest.fail "expected pulse source"

let test_pwl_and_sin_sources () =
  let deck =
    P.parse_string
      "t\nV1 a 0 PWL(0 0 1n 1)\nV2 b 0 SIN(0.45 0.1 1meg)\nR1 a b 1k\n"
  in
  match N.elements deck.netlist with
  | [ N.Vsource { wave = W.Pwl { W.points = pts; _ }; _ }; N.Vsource { wave = W.Sine s; _ }; _ ] ->
    Alcotest.(check int) "pwl points" 2 (Array.length pts);
    check_float "sin offset" 0.45 s.offset;
    check_float "sin freq" 1e6 s.freq_hz
  | _ -> Alcotest.fail "expected PWL and SIN sources"

let test_mosfet_and_model () =
  let deck =
    P.parse_string
      "t\n\
       .model nvs vs (type=n vt0=0.42)\n\
       Vd d 0 DC 0.9\n\
       Vg g 0 DC 0.9\n\
       M1 d g 0 0 nvs W=600n L=40n\n"
  in
  (match
     List.find_opt
       (function N.Mosfet _ -> true | _ -> false)
       (N.elements deck.netlist)
   with
  | Some (N.Mosfet { dev; _ }) ->
    check_float ~eps:1e-12 "width" 600e-9 dev.width;
    check_float ~eps:1e-12 "length" 40e-9 dev.length;
    (* The overridden vt0 lowers the current vs the default card. *)
    let id = Vstat_device.Device_model.ids dev ~vg:0.9 ~vd:0.9 ~vs:0.0 ~vb:0.0 in
    let default_dev =
      Vstat_device.Cards.vs_seed_device ~polarity:Vstat_device.Device_model.Nmos
        ~w_nm:600.0 ~l_nm:40.0
    in
    let id_default =
      Vstat_device.Device_model.ids default_dev ~vg:0.9 ~vd:0.9 ~vs:0.0 ~vb:0.0
    in
    Alcotest.(check bool) "vt0 override lowers id" true (id < id_default)
  | _ -> Alcotest.fail "expected a mosfet");
  (* And the deck solves. *)
  let eng = E.compile deck.netlist in
  let op = E.dc eng in
  Alcotest.(check bool) "drain current flows" true
    (Float.abs (E.source_current eng op "vd") > 1e-5)

let test_bsim_model_family () =
  let deck =
    P.parse_string
      "t\n.model nb bsim4lite (type=n u0=0.03)\nV1 d 0 DC 0.9\nM1 d d 0 0 nb\n"
  in
  let eng = E.compile deck.netlist in
  let op = E.dc eng in
  Alcotest.(check bool) "diode-connected conducts" true
    (Float.abs (E.source_current eng op "v1") > 1e-5)

let test_analyses_parsed () =
  let deck =
    P.parse_string
      "t\n\
       V1 a 0 DC 1\n\
       R1 a 0 1k\n\
       .tran 1p 100p\n\
       .dc v1 0 1 0.1\n\
       .ac dec 10 1k 1meg v1\n"
  in
  match deck.analyses with
  | [ P.Tran t; P.Dc_sweep d; P.Ac a ] ->
    check_float ~eps:1e-24 "tstep" 1e-12 t.tstep;
    check_float "sweep stop" 1.0 d.stop;
    Alcotest.(check string) "sweep source" "v1" d.source;
    Alcotest.(check int) "ppd" 10 a.points_per_decade
  | _ -> Alcotest.fail "expected three analyses in order"

let test_errors_carry_line_numbers () =
  let expect_error text expected_line =
    match P.parse_string text with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception P.Parse_error { line; _ } ->
      Alcotest.(check int) "line number" expected_line line
  in
  expect_error "t\nR1 a 0\n" 2;
  expect_error "t\nV1 a 0 DC 1\nM1 a a 0 0 nope\n" 3;
  expect_error "t\n.unknown 1 2\n" 2;
  (* Malformed numeric tokens must surface as Parse_error with the line,
     not as a bare Failure from the value parser. *)
  expect_error "t\nR1 a 0 1x0\n" 2;
  expect_error "t\nC1 a 0 bogus\n" 2;
  expect_error "t\nV1 a 0 DC oops\n" 2;
  expect_error "t\nV1 a 0 DC 1\nR1 a 0 1k\n.tran bad 100p\n" 4;
  expect_error "t\nV1 a 0 PULSE(0 1 zzz 1p 1p 10p 20p)\n" 2

(* Decks that are well-formed token by token but describe no runnable
   analysis or no physical element: each must fail as Parse_error on its
   own line, never run (or crash) the engine. *)
let test_bad_decks_rejected () =
  let body = "t\nV1 a 0 DC 1\nR1 a 0 1k\n" in
  let mos = "t\n.model n1 vs (type=n)\nV1 a 0 DC 1\n" in
  List.iter
    (fun (what, text, expected_line) ->
      match P.parse_string text with
      | _ -> Alcotest.failf "%s: expected Parse_error" what
      | exception P.Parse_error { line; _ } ->
        Alcotest.(check int) what expected_line line)
    [
      ("dc step against the range", body ^ ".dc V1 0 1 -0.1\n", 4);
      ("dc zero step", body ^ ".dc V1 0 1 0\n", 4);
      ("dc too many points", body ^ ".dc V1 0 1 1e-12\n", 4);
      ("dc unknown source", body ^ ".dc V9 0 1 0.1\n", 4);
      ("dc current source", body ^ "I1 a 0 DC 1m\n.dc I1 0 1 0.1\n", 5);
      ("tran zero step", body ^ ".tran 0 1n\n", 4);
      ("tran negative stop", body ^ ".tran 1p -1n\n", 4);
      ("ac zero points", body ^ ".ac dec 0 1k 1meg v1\n", 4);
      ("ac fractional points", body ^ ".ac dec 2.5 1k 1meg v1\n", 4);
      ("ac too many points", body ^ ".ac dec 100k 1 1e12 v1\n", 4);
      ("ac reversed range", body ^ ".ac dec 10 1meg 1k v1\n", 4);
      ("ac zero start", body ^ ".ac dec 10 0 1k v1\n", 4);
      ("ac unknown source", body ^ ".ac dec 10 1k 1meg v7\n", 4);
      ("nan card parameter", "t\n.model n1 vs (type=n vt0=nan)\n", 2);
      ("infinite capacitor", "t\nC1 a 0 1e999\n", 2);
      ("inf resistor", "t\nR1 a 0 inf\n", 2);
      ("overflow after scaling", "t\nR1 a 0 1e303t\n", 2);
      ("zero width", mos ^ "M1 a a 0 0 n1 W=0\n", 4);
      ("negative length", mos ^ "M1 a a 0 0 n1 L=-40n\n", 4);
    ]

let test_sweep_source_declared_later () =
  let deck = P.parse_string "t\n.dc V1 0 1 0.5\nV1 a 0 DC 1\nR1 a 0 1k\n" in
  Alcotest.(check int) "one sweep" 1 (List.length deck.analyses)

let test_unknown_model_rejected () =
  match P.parse_string "t\nM1 d g 0 0 missing\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception P.Parse_error { message; _ } ->
    Alcotest.(check bool) "mentions model" true
      (String.length message > 0)

(* --- the shipped example decks --- *)

(* Found from the test binary's location (_build/default/test/...): the
   nearest ancestor holding dune-project is the source tree. *)
let example_decks =
  lazy
    (let rec find_root dir =
       if Sys.file_exists (Filename.concat dir "dune-project") then dir
       else begin
         let parent = Filename.dirname dir in
         if parent = dir then Alcotest.fail "could not locate the workspace root"
         else find_root parent
       end
     in
     let dir =
       Filename.concat
         (find_root (Filename.dirname Sys.executable_name))
         "examples/netlists"
     in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".sp")
     |> List.sort compare
     |> List.map (fun f ->
            let path = Filename.concat dir f in
            (path, In_channel.with_open_bin path In_channel.input_all)))

let test_example_decks () =
  let decks = Lazy.force example_decks in
  Alcotest.(check bool) "found the decks" true (List.length decks >= 3);
  List.iter
    (fun (path, _) ->
      let deck = P.parse_file path in
      ignore (E.dc (E.compile deck.netlist)))
    decks

(* Random edits of the shipped decks: characters, whole tokens and whole
   lines replaced by fragments chosen to hit the parser's checks. *)
let mutated_deck =
  let open QCheck.Gen in
  let fragments =
    [| "0"; "-1"; "nan"; "inf"; "1e999"; "0.1"; "1meg"; "-0.1"; "x"; "(";
       ")"; "="; ""; "\n"; "+"; "*"; "$"; "W=0"; "L=-1"; ".dc v1 0 1 -1";
       ".ac dec 0 1 2 v1"; ".tran 0 1"; ".model m vs (type=n)";
       "M1 a b c d m" |]
  in
  let replace_nth n f l = List.mapi (fun j x -> if j = n then f else x) l in
  let edit text =
    let n = String.length text in
    let lines = String.split_on_char '\n' text in
    let line_no = int_bound (List.length lines - 1) in
    oneof
      [
        ( pair (int_bound n) (oneofa fragments) >|= fun (i, f) ->
          String.sub text 0 i ^ f ^ String.sub text i (n - i) );
        ( int_bound n >|= fun i ->
          if i = n then text
          else String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1) );
        ( triple line_no small_nat (oneofa fragments) >|= fun (k, t, f) ->
          let toks = String.split_on_char ' ' (List.nth lines k) in
          let t = t mod List.length toks in
          String.concat "\n"
            (replace_nth k (String.concat " " (replace_nth t f toks)) lines) );
        ( pair line_no (oneofa fragments) >|= fun (k, f) ->
          String.concat "\n" (replace_nth k f lines) );
      ]
  in
  let rec edits k text =
    if k = 0 then return text else edit text >>= edits (k - 1)
  in
  oneofl (List.map snd (Lazy.force example_decks)) >>= fun text ->
  int_range 1 4 >>= fun k -> edits k text

let prop_mutated_decks_fail_typed =
  QCheck.Test.make ~name:"mutated example decks raise only Parse_error"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") mutated_deck)
    (fun text ->
      match P.parse_string text with
      | _ | (exception P.Parse_error _) -> true)

let () =
  Alcotest.run "vstat_spice"
    [
      ( "values",
        [
          Alcotest.test_case "engineering suffixes" `Quick test_parse_value;
          Alcotest.test_case "suffix table + units" `Quick
            test_parse_value_suffix_table;
          Alcotest.test_case "malformed" `Quick test_parse_value_malformed;
        ] );
      ( "decks",
        [
          Alcotest.test_case "divider" `Quick test_parse_divider;
          Alcotest.test_case "comments/continuations" `Quick test_comments_and_continuations;
          Alcotest.test_case "case-insensitive nodes" `Quick test_case_insensitive_nodes;
          Alcotest.test_case "pulse" `Quick test_pulse_source;
          Alcotest.test_case "pwl/sin" `Quick test_pwl_and_sin_sources;
          Alcotest.test_case "mosfet + model" `Quick test_mosfet_and_model;
          Alcotest.test_case "bsim family" `Quick test_bsim_model_family;
          Alcotest.test_case "analyses" `Quick test_analyses_parsed;
          Alcotest.test_case "error line numbers" `Quick test_errors_carry_line_numbers;
          Alcotest.test_case "unknown model" `Quick test_unknown_model_rejected;
          Alcotest.test_case "bad decks rejected" `Quick test_bad_decks_rejected;
          Alcotest.test_case "sweep source declared later" `Quick
            test_sweep_source_declared_later;
          Alcotest.test_case "example decks" `Quick test_example_decks;
          QCheck_alcotest.to_alcotest prop_mutated_decks_fail_typed;
        ] );
    ]
