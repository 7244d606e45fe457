(* Flags and converters shared by vstat, vstatd and vstat_sim.

   Every numeric flag goes through a validating converter, so a bad value
   is a usage error (exit 2, see [exit_code]) rather than an
   Invalid_argument raised deep inside the runtime.  A flag whose meaning
   differs between the executables (a Monte Carlo sample versus a whole
   deck run) takes its help text from the caller; its name, converter and
   default live here. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable progress logging.")

let int_conv ~ok ~msg =
  let parse s =
    match int_of_string_opt s with
    | Some j when ok j -> Ok j
    | Some _ -> Error (`Msg msg)
    | None ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int =
  int_conv ~ok:(fun j -> j >= 1) ~msg:"must be a positive integer (>= 1)"

let nonneg_int =
  int_conv ~ok:(fun j -> j >= 0) ~msg:"must be a non-negative integer (>= 0)"

(* [min_n] is the smallest sample count a command can summarize (a spread
   needs 2 samples, a skewness or QQ plot 3). *)
let at_least min_n =
  int_conv
    ~ok:(fun j -> j >= min_n)
    ~msg:(Printf.sprintf "must be at least %d for this command" min_n)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ -> Error (`Msg "must be a finite positive number")
    | None ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let retry_t ~doc =
  Arg.(value & opt positive_int 1 & info [ "retry" ] ~docv:"ATTEMPTS" ~doc)

let deadline_t ~doc =
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "deadline" ] ~docv:"SEC" ~doc)

(* A fault-injection spec: parsed by [parse], whose errors are plain
   messages, and printed back by [to_string]. *)
let spec_conv parse to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (to_string v) )

let inject_fault_t ~doc =
  let module FI = Vstat_device.Fault_inject in
  Arg.(
    value
    & opt (some (spec_conv FI.parse_spec FI.spec_to_string)) None
    & info [ "inject-fault" ] ~docv:"RATE[:KIND]" ~doc)

(* cmdliner reports CLI parse/validation errors as its own 124; the
   documented contract of every executable is exit code 2 for bad flags. *)
let exit_code code = if code = Cmd.Exit.cli_error then 2 else code

(* The EXIT STATUS section of every --help.  cmdliner's default list names
   123 and 124, which no executable returns ([exit_code], and each front
   end catches what would end in 123).  [failure] and [usage] say when the
   executable exits 1 and 2; [interrupted] is for one that traps SIGINT and
   SIGTERM. *)
let exits ~failure ~usage ?interrupted () =
  Cmd.Exit.(
    [
      info ok ~doc:"on success.";
      info 1 ~doc:failure;
      info 2 ~doc:usage;
      info internal_error ~doc:"on an unexpected internal error.";
    ]
    @ Option.to_list (Option.map (fun doc -> info 130 ~max:143 ~doc) interrupted))
