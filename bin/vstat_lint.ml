(* vstat_lint — the project-invariant static-analysis pass.

   Usage: vstat_lint [options] PATH...

   Checks every .ml under the given paths (directories are walked
   recursively, skipping _build/.git and --exclude'd directory names)
   against the rule families documented in DESIGN.md ("Static analysis &
   invariants"), and exits 1 when violations remain after suppressions
   ([@vstat.allow "rule"] attributes and the lint.allow file).

   Every rule reads the .cmt/.cmti typed trees dune writes for @check,
   so lint the build tree: dune build @check, then --root _build/default.
   A scanned .ml without a .cmt (a source tree, a file that does not
   compile) exits 2 naming it. *)

module L = Vstat_lint_core

let () =
  let format = ref L.Report.Text in
  let allow_file = ref (if Sys.file_exists "lint.allow" then "lint.allow" else "") in
  let excludes = ref [ "_build"; ".git" ] in
  let paths = ref [] in
  let list_rules = ref false in
  let root = ref "" in
  let spec =
    [
      ( "--format",
        Arg.String
          (fun s ->
            match L.Report.format_of_string s with
            | Some f -> format := f
            | None ->
              raise (Arg.Bad (Printf.sprintf "unknown format %S" s))),
        "FMT  output format: text (default) or json" );
      ( "--allow",
        Arg.Set_string allow_file,
        "FILE suppression file (default: ./lint.allow when present; pass \
         an empty string to disable)" );
      ( "--exclude",
        Arg.String (fun d -> excludes := d :: !excludes),
        "DIR  directory name to skip during the walk (repeatable; _build \
         and .git are always skipped)" );
      ( "--root",
        Arg.Set_string root,
        "DIR  chdir here before scanning, so paths (and lint.allow \
         prefixes) are repo-relative" );
      ("--list-rules", Arg.Set list_rules, " print the rule registry and exit");
      (* The one mode used to be spelled --deep; perfbench/dune still
         passes it, so it is accepted, unlisted, and changes nothing. *)
      ("--deep", Arg.Unit ignore, "");
    ]
  in
  let usage = "vstat_lint [options] PATH..." in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    L.Rules.pp_list Format.std_formatter ();
    exit 0
  end;
  if !root <> "" then begin
    match Sys.chdir !root with
    | () -> ()
    | exception Sys_error msg ->
      Printf.eprintf "vstat_lint: --root: %s\n" msg;
      exit 2
  end;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let allow =
    if !allow_file = "" then L.Allowlist.empty
    else
      match L.Allowlist.load !allow_file with
      | a -> a
      | exception L.Allowlist.Malformed { file; lineno; text } ->
        Printf.eprintf "vstat_lint: malformed allow entry %s:%d: %s\n" file
          lineno text;
        exit 2
      | exception Sys_error msg ->
        Printf.eprintf "vstat_lint: cannot read allow file: %s\n" msg;
        exit 2
  in
  match L.Engine.run ~excludes:!excludes ~allow (List.rev !paths) with
  | files_scanned, diags ->
    L.Report.print !format stdout ~files_scanned diags;
    exit (if diags = [] then 0 else 1)
  | exception L.Engine.No_typed_tree (first :: rest) ->
    Printf.eprintf
      "vstat_lint: no .cmt typed tree for %s%s; build them (dune build \
       @check) and lint the build tree with --root _build/default\n"
      first
      (match rest with
      | [] -> ""
      | _ -> Printf.sprintf " and %d more .ml files" (List.length rest));
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "vstat_lint: %s\n" msg;
    exit 2
