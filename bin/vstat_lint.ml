(* vstat_lint — the project-invariant static-analysis pass.

   Usage: vstat_lint [options] PATH...

   Scans every .ml under the given paths (directories are walked
   recursively, skipping _build/.git and --exclude'd directory names),
   checks the rule families documented in DESIGN.md ("Static analysis &
   invariants"), and exits non-zero when violations remain after
   suppressions ([@vstat.allow "rule"] attributes and the lint.allow
   file).

   With --deep, four cross-module rules also run over the .cmt/.cmti
   typed trees found under the paths (dune writes them for @check):
   determinism taint reaching [@vstat.entry] hot entry points and
   unguarded module-level mutable state reachable from Domain.spawn roots,
   both with the full cross-module call path, every [val] of an interface
   that no other compilation unit uses, and every optional parameter of
   such a [val] that no application passes.  A source tree has no
   typed trees, so --deep there exits 2; lint the build tree instead:
   dune build @check, then --root _build/default. *)

module L = Vstat_lint_core

let () =
  let format = ref L.Report.Text in
  let allow_file = ref (if Sys.file_exists "lint.allow" then "lint.allow" else "") in
  let excludes = ref [ "_build"; ".git" ] in
  let paths = ref [] in
  let list_rules = ref false in
  let deep = ref false in
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
      ( "--deep",
        Arg.Set deep,
        " run the cross-module pass (determinism-taint, domain-safety, \
         unused-export, unused-optional) on top of the per-file rules" );
      ( "--root",
        Arg.Set_string root,
        "DIR  chdir here before scanning, so paths (and lint.allow \
         prefixes) are repo-relative" );
      ("--list-rules", Arg.Set list_rules, " print the rule registry and exit");
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
  let cfg = L.Engine.default_config ~allow () in
  let paths = List.rev !paths in
  if !deep then begin
    match L.Engine.run_deep ~excludes:!excludes cfg paths with
    | r ->
      L.Report.print !format stdout ~files_scanned:r.L.Engine.deep_files
        r.L.Engine.deep_diags;
      exit (if r.L.Engine.deep_diags = [] then 0 else 1)
    | exception L.Engine.No_typed_trees paths ->
      Printf.eprintf
        "vstat_lint: --deep found no .cmt typed trees under %s; build them \
         (dune build @check) and lint the build tree with --root \
         _build/default\n"
        (String.concat " " paths);
      exit 2
    | exception Sys_error msg ->
      Printf.eprintf "vstat_lint: %s\n" msg;
      exit 2
  end
  else
    match L.Engine.run ~excludes:!excludes cfg paths with
    | files_scanned, diags ->
      L.Report.print !format stdout ~files_scanned diags;
      exit (if diags = [] then 0 else 1)
    | exception Sys_error msg ->
      Printf.eprintf "vstat_lint: %s\n" msg;
      exit 2
