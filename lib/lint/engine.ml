(* The lint pass: every rule reads the typed trees ({!Program}) that dune
   writes for @check.  The program is every [.cmt] under the working
   directory (the [--root]) in path order, so the report is deterministic
   and a subset scan still sees the callers and users outside it.
   Findings are reported only for the scanned paths: the [.ml] files
   under them, and the exports of their [.cmti]s. *)

(* Deterministic directory walk: readdir order is unspecified, so entries
   are sorted before descent.  [suffix] selects the files kept. *)
let rec collect_dir ~excludes ~suffix acc path =
  let entries = Sys.readdir path in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if List.mem name excludes then acc
      else
        let child = Filename.concat path name in
        if Sys.is_directory child then collect_dir ~excludes ~suffix acc child
        else if Filename.check_suffix name suffix then child :: acc
        else acc)
    acc entries

let collect_files ?(excludes = [ "_build"; ".git" ]) ?(suffix = ".ml") paths =
  let files =
    List.fold_left
      (fun acc p ->
        if Sys.is_directory p then collect_dir ~excludes ~suffix acc p
        else if Filename.check_suffix p suffix then p :: acc
        else acc)
      [] paths
  in
  List.sort String.compare files

(* The scanned [.ml] files that no [.cmt] under the root covers: the pass
   would silently skip them (a file that does not compile, a source tree
   linted in place). *)
exception No_typed_tree of string list

(* [run ~allow paths]: the number of [.ml] files scanned and every
   finding in them, in report order. *)
let run ?excludes ~allow paths =
  let files = collect_files ?excludes paths in
  let program =
    Program.scan ~allow
      (collect_files ?excludes ~suffix:".cmt" [ Filename.current_dir_name ])
  in
  (match
     List.filter
       (fun f -> not (List.exists (Program.same_file f) program.files))
       files
   with
  | [] -> ()
  | missing -> raise (No_typed_tree missing));
  let scanned (d : Diagnostic.t) =
    List.exists (Program.same_file d.file) files
  in
  let unused =
    Unused.check program ~cmtis:(collect_files ?excludes ~suffix:".cmti" paths)
  in
  ( List.length files,
    List.sort Diagnostic.compare
      (List.filter scanned (program.diags @ Taint.analyze program) @ unused) )
