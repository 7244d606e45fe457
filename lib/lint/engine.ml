(* The static-analysis pass itself: parse each [.ml] with compiler-libs and
   walk the Parsetree with [Ast_iterator], emitting {!Diagnostic.t}s for
   rule violations.

   The pass is purely syntactic — no typing, no ppx rewriting of shipped
   code — so rules that are semantic at heart (e.g. "polymorphic compare on
   a float expression") are approximated by conservative syntactic
   evidence: float literals, float-returning operators/stdlib functions,
   [Float.]/[Floatx.] applications, explicit [: float] constraints, and
   tuple literals containing any of those.  The approximation is tuned to
   produce no false positives on this codebase; known blind spots (a bare
   [compare] passed as a sort argument, floats reached through record
   fields) are documented in DESIGN.md.

   The per-file rules stay syntactic so that a file which does not
   compile is still linted.  {!run_deep} adds the cross-module rules,
   which read the typed trees instead ({!Program}); its direct
   nondeterminism sources are this pass's post-suppression determinism
   findings, so a sanctioned wall-clock read is not a taint source. *)

open Parsetree

type config = {
  allow : Allowlist.t;
  exn_strict_prefixes : string list;
      (* failwith / invalid_arg / raise Not_found all forbidden *)
  exn_failwith_prefixes : string list;
      (* only failwith forbidden (typed Numeric_error expected instead) *)
}

let default_config ?(allow = Allowlist.empty) () =
  {
    allow;
    exn_strict_prefixes = [ "lib/circuit/"; "lib/cells/"; "lib/device/" ];
    exn_failwith_prefixes = [ "lib/linalg/"; "lib/opt/" ];
  }

type state = {
  cfg : config;
  file : string;
  in_strict : bool;
  in_failwith_only : bool;
  mutable diags : Diagnostic.t list;
  mutable scopes : string list list;  (* [@vstat.allow] stack *)
  mutable file_allows : string list;  (* [@@@vstat.allow] floor attrs *)
  mutable hot : int;                  (* [@vstat.hot] nesting depth *)
  mutable sorted_ctx : int;
      (* bindings in scope whose body contains an explicit sort *)
}

(* --- path scoping ------------------------------------------------------ *)

let contains_substring ~needle hay =
  let ln = String.length needle and lh = String.length hay in
  ln = 0
  || (let found = ref false in
      let i = ref 0 in
      while (not !found) && !i <= lh - ln do
        if String.sub hay !i ln = needle then found := true;
        incr i
      done;
      !found)

let in_prefixes prefixes file =
  let f = Allowlist.normalize file in
  List.exists
    (fun p ->
      p <> ""
      && ((String.length f >= String.length p
           && String.sub f 0 (String.length p) = p)
         || contains_substring ~needle:("/" ^ p) f))
    prefixes

(* --- attribute handling ------------------------------------------------ *)

let is_hot_attr attrs =
  List.exists (fun a -> a.attr_name.Location.txt = "vstat.hot") attrs

(* --- emission ---------------------------------------------------------- *)

let emit st ~rule ~loc message =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol
  in
  let suppressed =
    List.exists (List.mem rule) st.scopes
    || List.mem rule st.file_allows
    || Allowlist.allows st.cfg.allow ~rule ~file:st.file ~line
  in
  if not suppressed then
    st.diags <-
      Diagnostic.make ~rule ~file:st.file ~line ~col message :: st.diags

(* --- expression classification ----------------------------------------- *)

let path_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Longident.flatten txt with _ -> [])
  | _ -> []

let unqual = function "Stdlib" :: rest -> rest | p -> p

let float_operators =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_functions =
  [
    "sqrt"; "exp"; "expm1"; "log"; "log10"; "log1p"; "sin"; "cos"; "tan";
    "asin"; "acos"; "atan"; "atan2"; "sinh"; "cosh"; "tanh"; "floor";
    "ceil"; "abs_float"; "mod_float"; "hypot"; "copysign"; "ldexp";
    "float_of_int"; "float_of_string";
  ]

(* Float.* / Floatx.* calls that do NOT return a float. *)
let float_module_predicates =
  [
    "equal"; "compare"; "is_nan"; "is_finite"; "is_infinite"; "is_integer";
    "sign_bit"; "close"; "to_int"; "to_string";
  ]

let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_tuple es -> List.exists floatish es
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt; _ }, []); _ }) -> (
    match (try Longident.flatten txt with _ -> []) with
    | [ "float" ] | [ "Stdlib"; "float" ] -> true
    | _ -> false)
  | Pexp_apply (f, args) -> (
    match unqual (path_of f) with
    | [ op ] when List.mem op float_operators -> true
    | [ fn ] when List.mem fn float_functions -> true
    | [ ("Float" | "Floatx"); fn ]
      when not (List.mem fn float_module_predicates) ->
      true
    | [ ("min" | "max") ] ->
      (* min/max propagate operand floatness; bool-returning comparisons
         never do. *)
      List.exists (fun (_, a) -> floatish a) args
    | _ -> false)
  | _ -> false

let is_tuple e =
  match e.pexp_desc with Pexp_tuple _ -> true | _ -> false

let hot_banned_list_fns =
  [
    "map"; "mapi"; "map2"; "fold_left"; "fold_right"; "fold_left2";
    "concat"; "concat_map"; "flatten"; "filter"; "filter_map"; "filteri";
    "partition"; "rev_map"; "init"; "append"; "sort"; "stable_sort";
    "sort_uniq"; "merge"; "combine"; "split";
  ]

(* Array functions that allocate a fresh array (or list/seq) per call.
   Deliberately NOT banned: fill/blit/length/get/set/unsafe_*/iter/iteri,
   which the preallocated sparse/dense assembly loops rely on. *)
let hot_banned_array_fns =
  [
    "make"; "create_float"; "init"; "copy"; "append"; "sub"; "concat";
    "of_list"; "to_list"; "of_seq"; "to_seq"; "to_seqi"; "map"; "mapi";
    "map2"; "split"; "combine"; "make_matrix";
  ]

(* --- per-expression rule checks ---------------------------------------- *)

let check_ident st loc path =
  (match unqual path with
  | "Random" :: _ ->
    emit st ~rule:Rules.determinism_random ~loc
      "Random.* breaks jobs:1 == jobs:N determinism; draw from a \
       counter-indexed Vstat_util.Rng substream instead (allowed only in \
       lib/util/rng.ml)"
  | [ "Unix"; ("gettimeofday" | "time") ]
  | [ "Sys"; "time" ]
  | [ "Monotonic_clock"; "now" ] ->
    emit st ~rule:Rules.determinism_wallclock ~loc
      "wall-clock reads are forbidden outside the sanctioned clock \
       (Vstat_runtime.Deadline.now_ns): sample values must be pure \
       functions of (index, substream)"
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] ->
    if st.sorted_ctx = 0 then
      emit st ~rule:Rules.determinism_hashtbl ~loc
        (Printf.sprintf
           "Hashtbl.%s traverses buckets in unspecified order and no \
            adjacent List.sort/sort_uniq/Array.sort re-establishes a total \
            order in this function"
           fn)
  | _ -> ());
  (match unqual path with
  | [ (("failwith" | "invalid_arg") as fn) ] when st.in_strict ->
    emit st ~rule:Rules.exn_discipline ~loc
      (Printf.sprintf
         "%s in the circuit/cells/device layers defeats typed failure \
          classification; raise Diag.Solver_error (or mark the sanctioned \
          precondition with [@vstat.allow \"exn-discipline\"])"
         fn)
  | [ "failwith" ] when st.in_failwith_only ->
    emit st ~rule:Rules.exn_discipline ~loc
      "failwith in linalg/opt defeats typed failure classification; raise \
       Vstat_linalg.Linalg_error.Numeric_error instead"
  | _ -> ());
  if st.hot > 0 then
    match unqual path with
    | "Printf" :: _ | "Format" :: _ ->
      emit st ~rule:Rules.hot_path ~loc
        "Printf/Format in a [@vstat.hot] body allocates and formats on the \
         hot path"
    | [ "List"; fn ] when List.mem fn hot_banned_list_fns ->
      emit st ~rule:Rules.hot_path ~loc
        (Printf.sprintf
           "List.%s in a [@vstat.hot] body allocates per call; use the \
            preallocated workspace / an index loop"
           fn)
    | [ "Array"; fn ] when List.mem fn hot_banned_array_fns ->
      emit st ~rule:Rules.hot_path ~loc
        (Printf.sprintf
           "Array.%s in a [@vstat.hot] body allocates a fresh array per \
            call; reuse a preallocated workspace (Array.fill/blit and \
            index loops stay allocation-free)"
           fn)
    | [ ("@" | "^") ] ->
      emit st ~rule:Rules.hot_path ~loc
        "list/string append in a [@vstat.hot] body allocates per call"
    | _ -> ()

let check_apply st loc f args =
  (match unqual (path_of f) with
  | [ (("=" | "<>") as op) ] ->
    if List.exists (fun (_, a) -> floatish a) args then
      emit st ~rule:Rules.float_compare ~loc
        (Printf.sprintf
           "polymorphic (%s) on a float expression; use Float.equal (or \
            Floatx.close for tolerant comparison)"
           op)
  | [ (("compare" | "min" | "max") as op) ] ->
    if List.exists (fun (_, a) -> floatish a || is_tuple a) args then
      emit st ~rule:Rules.float_compare ~loc
        (Printf.sprintf
           "polymorphic %s on a float/tuple expression; use Float.compare \
            / Float.min / Float.max or an explicit field-wise comparator"
           op)
  | _ -> ());
  match (unqual (path_of f), args) with
  | ( [ ("raise" | "raise_notrace") ],
      [
        ( _,
          {
            pexp_desc =
              Pexp_construct ({ txt = Longident.Lident "Not_found"; _ }, None);
            _;
          } );
      ] )
    when st.in_strict ->
    emit st ~rule:Rules.exn_discipline ~loc
      "raise Not_found in the circuit/cells/device layers is untyped; use \
       a Diag diagnostic or Invalid_argument via a sanctioned site"
  | _ -> ()

(* --- sort adjacency ---------------------------------------------------- *)

let contains_sort expr0 =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match unqual (path_of e) with
          | [ ("List" | "Array"); ("sort" | "stable_sort" | "sort_uniq" | "fast_sort") ]
            ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it expr0;
  !found

(* --- the iterator ------------------------------------------------------ *)

(* The body past a binding's own parameter chain. *)
let rec unwrap_funs e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> unwrap_funs body
  | _ -> e

let make_iterator st =
  let expr self e =
    let rules = Allowlist.allow_rules e.pexp_attributes in
    st.scopes <- rules :: st.scopes;
    (match e.pexp_desc with
    | Pexp_ident _ -> check_ident st e.pexp_loc (path_of e)
    | Pexp_apply (f, args) -> check_apply st e.pexp_loc f args
    | _ -> ());
    (if is_hot_attr e.pexp_attributes then begin
       (* An expression-level hot marker: lint its body (past the parameter
          chain) in hot context. *)
       st.hot <- st.hot + 1;
       self.Ast_iterator.expr self (unwrap_funs e);
       st.hot <- st.hot - 1
     end
     else begin
       (match e.pexp_desc with
       | Pexp_fun _ | Pexp_function _ when st.hot > 0 ->
         emit st ~rule:Rules.hot_path ~loc:e.pexp_loc
           "closure definition inside a [@vstat.hot] body allocates per \
            call; hoist it to a toplevel function taking its environment \
            as arguments"
       | _ -> ());
       Ast_iterator.default_iterator.expr self e
     end);
    st.scopes <- List.tl st.scopes
  in
  let value_binding self vb =
    let rules = Allowlist.allow_rules vb.pvb_attributes in
    let hot = is_hot_attr vb.pvb_attributes in
    let sorted = contains_sort vb.pvb_expr in
    st.scopes <- rules :: st.scopes;
    if sorted then st.sorted_ctx <- st.sorted_ctx + 1;
    (if hot then begin
       (* Skip the binding's own parameter chain (those [fun]s are the
          function being marked, not closures allocated inside it). *)
       st.hot <- st.hot + 1;
       self.Ast_iterator.pat self vb.pvb_pat;
       self.Ast_iterator.expr self (unwrap_funs vb.pvb_expr);
       st.hot <- st.hot - 1
     end
     else Ast_iterator.default_iterator.value_binding self vb);
    if sorted then st.sorted_ctx <- st.sorted_ctx - 1;
    st.scopes <- List.tl st.scopes
  in
  let structure_item self si =
    (match si.pstr_desc with
    | Pstr_attribute a when a.attr_name.Location.txt = "vstat.allow" ->
      st.file_allows <- Allowlist.payload_strings a.attr_payload @ st.file_allows
    | _ -> ());
    Ast_iterator.default_iterator.structure_item self si
  in
  { Ast_iterator.default_iterator with expr; value_binding; structure_item }

(* --- parsing and entry points ------------------------------------------ *)

let read_source path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_implementation_string path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  Parse.implementation lexbuf

let lint_file cfg path =
  let st =
    {
      cfg;
      file = path;
      in_strict = in_prefixes cfg.exn_strict_prefixes path;
      in_failwith_only = in_prefixes cfg.exn_failwith_prefixes path;
      diags = [];
      scopes = [];
      file_allows = [];
      hot = 0;
      sorted_ctx = 0;
    }
  in
  let src = read_source path in
  (match parse_implementation_string path src with
  | structure ->
    let it = make_iterator st in
    it.Ast_iterator.structure it structure
  | exception exn ->
    let loc, msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
        ( report.Location.main.loc,
          Format.asprintf "%t" report.Location.main.txt )
      | _ -> (Location.none, Printexc.to_string exn)
    in
    emit st ~rule:Rules.parse_error ~loc msg);
  List.sort Diagnostic.compare st.diags

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

let run ?excludes cfg paths =
  let files = collect_files ?excludes paths in
  let diags = List.concat_map (lint_file cfg) files in
  (List.length files, List.sort Diagnostic.compare diags)

(* --- the deep (cross-module) pass --------------------------------------- *)

type deep_result = {
  deep_files : int;
  deep_diags : Diagnostic.t list;
}

exception No_typed_trees of string list

(* The per-file rules run first, serially over the sorted file list; their
   determinism findings are the deep pass's direct taint sources.  The
   four cross-module rules then read the typed trees of the whole
   program, every [.cmt] under the working directory (the [--root]) in
   path order, so the report is deterministic and a subset scan still
   sees the callers and users outside it.  Findings are reported only
   for the scanned paths: exports of their [.cmti]s, taint and races in
   their sources.  Without any [.cmt] under the paths the scan would
   check nothing, so that is an error. *)
let run_deep ?excludes cfg paths =
  let files = collect_files ?excludes paths in
  if collect_files ?excludes ~suffix:".cmt" paths = [] then
    raise (No_typed_trees paths);
  let per_file = List.concat_map (lint_file cfg) files in
  let sources =
    List.filter
      (fun (d : Diagnostic.t) ->
        List.mem d.rule
          Rules.[ determinism_random; determinism_wallclock; determinism_hashtbl ])
      per_file
  in
  let program =
    Program.scan ~sources
      (collect_files ?excludes ~suffix:".cmt" [ Filename.current_dir_name ])
  in
  let deep =
    List.filter
      (fun (d : Diagnostic.t) -> List.exists (Program.same_file d.file) files)
      (Taint.analyze ~allow:cfg.allow program)
  in
  let unused =
    Unused.check ~allow:cfg.allow program
      ~cmtis:(collect_files ?excludes ~suffix:".cmti" paths)
  in
  {
    deep_files = List.length files;
    deep_diags = List.sort Diagnostic.compare (per_file @ deep @ unused);
  }
