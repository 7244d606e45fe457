type analysis =
  | Tran of { tstep : float; tstop : float }
  | Dc_sweep of { source : string; start : float; stop : float; step : float }
  | Ac of {
      points_per_decade : int;
      f_start : float;
      f_stop : float;
      source : string;
    }

type deck = { title : string; netlist : Netlist.t; analyses : analysis list }

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* --- scalar values with engineering suffixes --- *)

(* Berkeley-SPICE scale-factor semantics: the scalar is the longest numeric
   prefix; the trailing alphabetic part is examined case-insensitively for
   a scale factor, with the multi-letter factors MEG and MIL matched before
   single letters (so "3MEG" and "10MEGohm" cannot be shadowed into milli
   by the trailing/leading [m]), and any remaining unit letters ("pF",
   "kOhm", "V") are ignored.  An alphabetic tail with no recognized factor
   is a bare unit and scales by 1, as in SPICE. *)
let parse_value s =
  let s = String.lowercase_ascii (String.trim s) in
  let n = String.length s in
  if n = 0 then raise (Parse_error { line = 0; message = "empty value" });
  let malformed () =
    raise
      (Parse_error
         { line = 0; message = Printf.sprintf "malformed value %S" s })
  in
  (* Longest numeric prefix (cold path: decks are parsed once). *)
  let num_len = ref 0 in
  for k = 1 to n do
    if Option.is_some (float_of_string_opt (String.sub s 0 k)) then
      num_len := k
  done;
  if !num_len = 0 then malformed ();
  let v = float_of_string (String.sub s 0 !num_len) in
  let rest = String.sub s !num_len (n - !num_len) in
  if not (String.for_all (fun c -> c >= 'a' && c <= 'z') rest) then
    malformed ();
  let starts p =
    String.length rest >= String.length p
    && String.sub rest 0 (String.length p) = p
  in
  let scale =
    if rest = "" then 1.0
    else if starts "meg" then 1e6
    else if starts "mil" then 25.4e-6
    else
      match rest.[0] with
      | 't' -> 1e12
      | 'g' -> 1e9
      | 'k' -> 1e3
      | 'm' -> 1e-3
      | 'u' -> 1e-6
      | 'n' -> 1e-9
      | 'p' -> 1e-12
      | 'f' -> 1e-15
      | _ -> 1.0 (* bare unit letters, e.g. "10v" *)
  in
  let v = v *. scale in
  (* "nan", "inf" and overflowing literals such as "1e999" parse as
     floats but are no circuit value. *)
  if not (Float.is_finite v) then
    raise
      (Parse_error
         { line = 0; message = Printf.sprintf "non-finite value %S" s });
  v

(* Like [parse_value] but failures carry the offending deck line number,
   so every malformed scalar in a deck reports uniformly. *)
let value ~line s =
  match parse_value s with
  | v -> v
  | exception Parse_error { message; _ } -> fail line "%s" message

(* --- logical lines: strip comments, join continuations --- *)

let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let cleaned =
    List.mapi
      (fun i line ->
        let line =
          match String.index_opt line '$' with
          | Some k -> String.sub line 0 k
          | None -> line
        in
        (i + 1, String.trim line))
      raw
  in
  (* Join continuations onto the previous logical line. *)
  let rec join acc = function
    | [] -> List.rev acc
    | (num, line) :: rest ->
      if line = "" || line.[0] = '*' then join acc rest
      else if line.[0] = '+' then begin
        match acc with
        | (first_num, prev) :: acc_rest ->
          let cont = String.sub line 1 (String.length line - 1) in
          join ((first_num, prev ^ " " ^ cont) :: acc_rest) rest
        | [] -> fail num "continuation line with no preceding element"
      end
      else join ((num, line) :: acc) rest
  in
  join [] cleaned

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

(* Re-join tokens so that parenthesised groups like PULSE(a b c) become a
   single token even when blanks appear inside the parentheses. *)
let rejoin_parens toks =
  let rec go depth current acc = function
    | [] -> List.rev (if current = "" then acc else current :: acc)
    | t :: rest ->
      let opens = String.fold_left (fun n c -> if c = '(' then n + 1 else n) 0 t in
      let closes = String.fold_left (fun n c -> if c = ')' then n + 1 else n) 0 t in
      let depth' = depth + opens - closes in
      if depth = 0 && depth' = 0 then go 0 "" (t :: acc) rest
      else begin
        let current = if current = "" then t else current ^ " " ^ t in
        if depth' = 0 then go 0 "" (current :: acc) rest
        else go depth' current acc rest
      end
  in
  go 0 "" [] toks

(* --- waveform forms on source lines --- *)

let parse_paren_args line name body =
  (* body looks like "PULSE(1 2 3)" (case-insensitive); return the args. *)
  let upper = String.uppercase_ascii body in
  let prefix = String.uppercase_ascii name ^ "(" in
  if
    String.length upper >= String.length prefix
    && String.sub upper 0 (String.length prefix) = prefix
    && upper.[String.length upper - 1] = ')'
  then begin
    let inside =
      String.sub body (String.length prefix)
        (String.length body - String.length prefix - 1)
    in
    Some
      (List.map
         (fun t -> value ~line t)
         (tokens (String.map (fun c -> if c = ',' then ' ' else c) inside)))
  end
  else None

let parse_source_wave line rest =
  match rest with
  | [] -> fail line "source needs a value"
  | first :: _ -> (
    let joined = String.concat " " rest in
    match parse_paren_args line "PULSE" joined with
    | Some [ v1; v2; td; tr; tf; pw; per ] ->
      Waveform.Pulse
        { low = v1; high = v2; delay = td; rise = tr; fall = tf; width = pw;
          period = per }
    | Some [ v1; v2; td; tr; tf; pw ] ->
      Waveform.Pulse
        { low = v1; high = v2; delay = td; rise = tr; fall = tf; width = pw;
          period = 0.0 }
    | Some _ -> fail line "PULSE takes 6 or 7 arguments"
    | None -> (
      match parse_paren_args line "PWL" joined with
      | Some args ->
        if List.length args < 2 || List.length args mod 2 <> 0 then
          fail line "PWL needs an even number of arguments";
        let rec pairs = function
          | [] -> []
          | t :: v :: rest -> (t, v) :: pairs rest
          | _ -> assert false
        in
        Waveform.pwl (Array.of_list (pairs args))
      | None -> (
        match parse_paren_args line "SIN" joined with
        | Some [ off; ampl; freq ] ->
          Waveform.Sine { offset = off; amplitude = ampl; freq_hz = freq; phase = 0.0 }
        | Some [ off; ampl; freq; phase ] ->
          Waveform.Sine { offset = off; amplitude = ampl; freq_hz = freq; phase }
        | Some _ -> fail line "SIN takes 3 or 4 arguments"
        | None -> (
          (* DC value, optionally prefixed by the keyword DC. *)
          let value_token =
            if String.uppercase_ascii first = "DC" then
              match rest with
              | _ :: v :: _ -> v
              | _ -> fail line "DC needs a value"
            else first
          in
          Waveform.Dc (value ~line value_token)))))

(* --- .model cards --- *)

type model_card =
  | Vs_card of Vstat_device.Device_model.polarity * Vstat_device.Vs_model.params
  | Bsim_card of Vstat_device.Device_model.polarity * Vstat_device.Bsim4lite.params

let parse_assignments line toks =
  List.map
    (fun t ->
      match String.index_opt t '=' with
      | Some k ->
        let key = String.lowercase_ascii (String.sub t 0 k) in
        let v = String.sub t (k + 1) (String.length t - k - 1) in
        (key, v)
      | None -> fail line "expected key=value, got %S" t)
    toks

let polarity_of line v =
  match String.lowercase_ascii v with
  | "n" | "nmos" -> Vstat_device.Device_model.Nmos
  | "p" | "pmos" -> Vstat_device.Device_model.Pmos
  | other -> fail line "unknown device type %S" other

let parse_model line toks =
  match toks with
  | name :: family :: rest ->
    let body =
      String.concat " " rest
      |> String.map (fun c -> if c = '(' || c = ')' then ' ' else c)
    in
    let assignments = parse_assignments line (tokens body) in
    let lookup key = List.assoc_opt key assignments in
    let polarity =
      match lookup "type" with
      | Some v -> polarity_of line v
      | None -> fail line ".model needs type=n|p"
    in
    let num key default =
      match lookup key with
      | None -> default
      | Some v -> value ~line v
    in
    let card =
      match String.lowercase_ascii family with
      | "vs" ->
        let base =
          match polarity with
          | Vstat_device.Device_model.Nmos ->
            Vstat_device.Cards.vs_seed_nmos ~w_nm:600.0 ~l_nm:40.0
          | Vstat_device.Device_model.Pmos ->
            Vstat_device.Cards.vs_seed_pmos ~w_nm:600.0 ~l_nm:40.0
        in
        Vs_card
          ( polarity,
            {
              base with
              Vstat_device.Vs_model.vt0 = num "vt0" base.vt0;
              dibl =
                {
                  base.dibl with
                  delta0 = num "delta0" base.dibl.delta0;
                  l_scale = num "lscale" base.dibl.l_scale;
                };
              n0 = num "n0" base.n0;
              nd = num "nd" base.nd;
              vxo = num "vxo" base.vxo;
              mu = num "mu" base.mu;
              beta = num "beta" base.beta;
              alpha_q = num "alphaq" base.alpha_q;
              gamma_body = num "gamma" base.gamma_body;
              phib = num "phib" base.phib;
              cinv = num "cinv" base.cinv;
              cov = num "cov" base.cov;
            } )
      | "bsim4lite" | "bsim" ->
        let base =
          match polarity with
          | Vstat_device.Device_model.Nmos ->
            Vstat_device.Cards.bsim_nmos ~w_nm:600.0 ~l_nm:40.0
          | Vstat_device.Device_model.Pmos ->
            Vstat_device.Cards.bsim_pmos ~w_nm:600.0 ~l_nm:40.0
        in
        Bsim_card
          ( polarity,
            {
              base with
              Vstat_device.Bsim4lite.vth0 = num "vth0" base.vth0;
              k1 = num "k1" base.k1;
              phis = num "phis" base.phis;
              dvt0 = num "dvt0" base.dvt0;
              dvt_l = num "dvtl" base.dvt_l;
              eta0 = num "eta0" base.eta0;
              eta_l = num "etal" base.eta_l;
              u0 = num "u0" base.u0;
              ua = num "ua" base.ua;
              ub = num "ub" base.ub;
              vsat = num "vsat" base.vsat;
              n_ss = num "nss" base.n_ss;
              lambda = num "lambda" base.lambda;
              cox = num "cox" base.cox;
              cov = num "cov" base.cov;
            } )
      | other -> fail line "unknown model family %S (vs | bsim4lite)" other
    in
    (String.lowercase_ascii name, card)
  | _ -> fail line ".model needs a name and a family"

let device_of_card name card ~w ~l =
  match card with
  | Vs_card (polarity, p) ->
    Vstat_device.Vs_model.device ~name ~polarity
      { p with Vstat_device.Vs_model.w; l }
  | Bsim_card (polarity, p) ->
    Vstat_device.Bsim4lite.device ~name ~polarity
      { p with Vstat_device.Bsim4lite.w; l }

(* --- the deck --- *)

(* Upper bound on the points of a .dc or .ac sweep. *)
let max_points = 1e6

let parse_string text =
  let lines = logical_lines text in
  (* SPICE convention: the first (non-comment) line is always the title. *)
  let title, body =
    match lines with [] -> ("", []) | (_, first) :: rest -> (first, rest)
  in
  let netlist = Netlist.create () in
  let node name =
    if name = "0" || String.lowercase_ascii name = "gnd" then
      Netlist.ground netlist
    else Netlist.node netlist (String.lowercase_ascii name)
  in
  let models = Hashtbl.create 8 in
  let analyses = ref [] in
  let add_analysis line a = analyses := (line, a) :: !analyses in
  let handle (line, text) =
    let toks = rejoin_parens (tokens text) in
    match toks with
    | [] -> ()
    | head :: rest -> (
      let first_char = Char.lowercase_ascii head.[0] in
      match first_char with
      | '.' -> (
        match (String.lowercase_ascii head, rest) with
        | ".end", _ -> ()
        | ".model", toks -> (
          let name, card = parse_model line toks in
          Hashtbl.replace models name card)
        | ".tran", [ tstep; tstop ] ->
          let tstep = value ~line tstep and tstop = value ~line tstop in
          if tstep <= 0.0 || tstop <= 0.0 then
            fail line ".tran needs tstep > 0 and tstop > 0";
          add_analysis line (Tran { tstep; tstop })
        | ".dc", [ source; start; stop; step ] ->
          let start = value ~line start and stop = value ~line stop
          and step = value ~line step in
          (* A zero step gives an infinite or NaN interval count. *)
          let intervals = (stop -. start) /. step in
          if not (intervals >= 0.0 && intervals < max_points) then
            fail line
              ".dc step must be nonzero, point from start to stop and give \
               at most %.0f points"
              max_points;
          add_analysis line
            (Dc_sweep
               { source = String.lowercase_ascii source; start; stop; step })
        | ".ac", [ kind; points; f_start; f_stop; source ] ->
          if String.lowercase_ascii kind <> "dec" then
            fail line ".ac supports only DEC sweeps";
          let points = value ~line points and f_start = value ~line f_start
          and f_stop = value ~line f_stop in
          if not (Float.is_integer points && points >= 1.0
                  && points < max_points) then
            fail line ".ac points per decade must be an integer in [1, %.0f)"
              max_points;
          if not (f_start > 0.0 && f_start <= f_stop) then
            fail line ".ac needs 0 < fstart <= fstop";
          if points *. log10 (f_stop /. f_start) >= max_points then
            fail line ".ac sweep exceeds %.0f points" max_points;
          add_analysis line
            (Ac
               {
                 points_per_decade = int_of_float points;
                 f_start;
                 f_stop;
                 source = String.lowercase_ascii source;
               })
        | directive, _ -> fail line "unsupported directive %s" directive)
      | 'r' -> (
        match rest with
        | [ a; b; v ] -> (
          let ohms = value ~line v in
          try Netlist.resistor netlist head ~a:(node a) ~b:(node b) ~ohms
          with Failure m | Invalid_argument m -> fail line "%s" m)
        | _ -> fail line "R element: Rname n+ n- value")
      | 'c' -> (
        match rest with
        | [ a; b; v ] -> (
          let farads = value ~line v in
          try Netlist.capacitor netlist head ~a:(node a) ~b:(node b) ~farads
          with Failure m | Invalid_argument m -> fail line "%s" m)
        | _ -> fail line "C element: Cname n+ n- value")
      | 'v' -> (
        match rest with
        | plus :: minus :: wave_toks ->
          let wave = parse_source_wave line wave_toks in
          Netlist.vsource netlist
            (String.lowercase_ascii head)
            ~plus:(node plus) ~minus:(node minus) ~wave
        | _ -> fail line "V element: Vname n+ n- value|PULSE(...)|PWL(...)")
      | 'i' -> (
        match rest with
        | from_ :: to_ :: wave_toks ->
          let wave = parse_source_wave line wave_toks in
          Netlist.isource netlist
            (String.lowercase_ascii head)
            ~from_:(node from_) ~to_:(node to_) ~wave
        | _ -> fail line "I element: Iname n+ n- value")
      | 'm' -> (
        match rest with
        | d :: g :: s :: b :: model :: params ->
          let card =
            match Hashtbl.find_opt models (String.lowercase_ascii model) with
            | Some c -> c
            | None -> fail line "unknown model %S" model
          in
          let assignments = parse_assignments line params in
          let geom key default =
            match List.assoc_opt key assignments with
            | None -> default
            | Some v -> value ~line v
          in
          let w = geom "w" 600e-9 and l = geom "l" 40e-9 in
          if w <= 0.0 || l <= 0.0 then fail line "MOSFET needs W > 0 and L > 0";
          let dev = device_of_card head card ~w ~l in
          Netlist.mosfet netlist head ~d:(node d) ~g:(node g) ~s:(node s)
            ~b:(node b) ~dev
        | _ -> fail line "M element: Mname d g s b model [W=..] [L=..]")
      | other -> fail line "unsupported element type '%c'" other)
  in
  List.iter handle body;
  let analyses = List.rev !analyses in
  (* Sources may be declared after the directive that sweeps them. *)
  let sources = Netlist.vsource_names netlist in
  List.iter
    (fun (line, a) ->
      match a with
      | Dc_sweep { source; _ } | Ac { source; _ } ->
        if not (List.mem source sources) then
          fail line "no voltage source %S to sweep" source
      | Tran _ -> ())
    analyses;
  { title; netlist; analyses = List.map snd analyses }

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_string (In_channel.input_all ic))
