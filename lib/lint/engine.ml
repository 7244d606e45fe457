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

   The same walk doubles as phase 1 of the deep (cross-module) pass: while
   the per-file rules fire, it accumulates a {!Summary.t} per module —
   structure-level definitions with their outgoing value references,
   direct nondeterminism sources (post-suppression, so a sanctioned
   wall-clock read is not a taint source), module-level mutable state,
   aliases/opens for name resolution, and guard context (lexical
   [Mutex.protect] / [Atomic.*] / [Domain.DLS] nesting, per-function
   mutex-taking).  {!run_deep} drives phase 1 serially over the sorted
   file list, then hands the summaries to {!Callgraph} + {!Taint} for
   phase 2. *)

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

(* Per-function summary accumulator while the walk is inside a
   structure-level binding. *)
type fnacc = {
  a_name : string;
  a_line : int;
  a_entry : bool;
  a_allow_taint : bool;
  mutable a_spawner : bool;
  mutable a_locks : bool;
  mutable a_refs : Summary.reference list;
  mutable a_nondet : Summary.nondet list;
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
  (* --- summary accumulators (phase 1 of the deep pass) --- *)
  mutable cur : fnacc option;         (* enclosing structure-level binding *)
  mutable at_struct : bool;           (* next value_binding is structure-level *)
  mutable guard : int;                (* Mutex.protect/Atomic/DLS nesting *)
  mutable mod_prefix : string list;   (* submodule path, innermost first *)
  mutable s_aliases : (string * string list) list;
  mutable s_opens : string list list;
  mutable s_globals : Summary.glob list;
  mutable s_funcs : Summary.func list;
  topdefs : (string, unit) Hashtbl.t;
      (* bare names defined at structure level anywhere in this file *)
  mfields : (string, unit) Hashtbl.t;
      (* record field names declared [mutable] in this file *)
  ifields : (string, unit) Hashtbl.t;
      (* record field names declared immutable in this file: a name — like
         the circuit engine's [work_cap] — used mutably by one type and
         immutably by another is ambiguous without typing, so it never
         classifies a binding as a mutable-record global *)
  locals : (string, int) Hashtbl.t;
      (* lexically bound value names (params, lets, cases), count-nested *)
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

let is_entry_attr attrs =
  List.exists (fun a -> a.attr_name.Location.txt = "vstat.entry") attrs

(* --- emission ---------------------------------------------------------- *)

(* [emit'] reports whether the diagnostic was actually recorded: the deep
   pass needs to know, because a suppressed nondeterminism site is a
   sanctioned one and must NOT become a taint source (the runtime's
   whitelisted wall-clock reads would otherwise taint every entry
   point). *)
let emit' st ~rule ~loc message =
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
  if suppressed then false
  else begin
    st.diags <-
      Diagnostic.make ~rule ~file:st.file ~line ~col message :: st.diags;
    true
  end

let emit st ~rule ~loc message = ignore (emit' st ~rule ~loc message)

let emit_nondet st ~rule ~loc ~what message =
  if emit' st ~rule ~loc message then
    match st.cur with
    | Some a ->
      a.a_nondet <-
        { Summary.nline = loc.Location.loc_start.Lexing.pos_lnum; nwhat = what }
        :: a.a_nondet
    | None -> ()

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
  | "Random" :: _ as p ->
    emit_nondet st ~rule:Rules.determinism_random ~loc
      ~what:(String.concat "." p)
      "Random.* breaks jobs:1 == jobs:N determinism; draw from a \
       counter-indexed Vstat_util.Rng substream instead (allowed only in \
       lib/util/rng.ml)"
  | ( [ "Unix"; ("gettimeofday" | "time") ]
    | [ "Sys"; "time" ]
    | [ "Monotonic_clock"; "now" ] ) as p ->
    emit_nondet st ~rule:Rules.determinism_wallclock ~loc
      ~what:(String.concat "." p)
      "wall-clock reads are forbidden outside the sanctioned clock \
       (Vstat_runtime.Deadline.now_ns): sample values must be pure \
       functions of (index, substream)"
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] ->
    if st.sorted_ctx = 0 then
      emit_nondet st ~rule:Rules.determinism_hashtbl ~loc
        ~what:("Hashtbl." ^ fn)
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

(* --- summary collection helpers ----------------------------------------- *)

let is_module_seg s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* Stdlib module heads never resolve to project code; dropping them here
   keeps summaries small.  No source file in the repository shares a
   basename with any of these (checked; [engine.ml] is the only duplicated
   basename and it is a project name). *)
let stdlib_modules =
  [
    "Arg"; "Array"; "ArrayLabels"; "Atomic"; "Bigarray"; "Bool"; "Buffer";
    "Bytes"; "Callback"; "Char"; "Complex"; "Condition"; "Digest"; "Domain";
    "Effect"; "Either"; "Ephemeron"; "Filename"; "Float"; "Format"; "Fun";
    "Gc"; "Hashtbl"; "In_channel"; "Int"; "Int32"; "Int64"; "Lazy";
    "Lexing"; "List"; "ListLabels"; "Map"; "Marshal"; "MoreLabels";
    "Mutex"; "Nativeint"; "Obj"; "Oo"; "Option"; "Out_channel"; "Parsing";
    "Printexc"; "Printf"; "Queue"; "Random"; "Result"; "Scanf";
    "Semaphore"; "Seq"; "Set"; "Stack"; "Stdlib"; "Str"; "String";
    "StringLabels"; "Sys"; "Type"; "Uchar"; "Unit"; "Unix"; "Weak";
  ]

let rec pat_names acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_names (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_names acc ps
  | Ppat_construct (_, Some (_, p))
  | Ppat_variant (_, Some p)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_open (_, p)
  | Ppat_exception p ->
    pat_names acc p
  | Ppat_record (fields, _) ->
    List.fold_left (fun acc (_, p) -> pat_names acc p) acc fields
  | Ppat_or (a, b) -> pat_names (pat_names acc a) b
  | _ -> acc

let push_locals st names =
  List.iter
    (fun n ->
      Hashtbl.replace st.locals n
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.locals n)))
    names

let pop_locals st names =
  List.iter
    (fun n ->
      match Hashtbl.find_opt st.locals n with
      | Some 1 -> Hashtbl.remove st.locals n
      | Some c -> Hashtbl.replace st.locals n (c - 1)
      | None -> ())
    names

let with_locals st names f =
  push_locals st names;
  Fun.protect ~finally:(fun () -> pop_locals st names) f

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

let dotted st name = String.concat "." (List.rev (name :: st.mod_prefix))

(* Accesses lexically under these application heads execute inside a
   guarded region (or are themselves atomic operations). *)
let is_guard_head path =
  match unqual path with
  | [ "Mutex"; "protect" ] | [ "Domain"; "DLS"; _ ] -> true
  | "Atomic" :: _ -> true
  | _ -> false

(* Structure-level mutable state the domain-safety rule tracks.  Arrays,
   [Atomic.t] and [Lazy.t] bindings are deliberately excluded: atomics are
   the sanctioned mechanism, and flagging every preallocated array would
   drown the rule in noise the per-call-site guard analysis cannot
   resolve. *)
let rec classify_global st e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> classify_global st e
  | Pexp_apply (f, [ _ ]) when unqual (path_of f) = [ "ref" ] -> Some "ref"
  | Pexp_apply (f, _) -> (
    match unqual (path_of f) with
    | [ (("Hashtbl" | "Buffer" | "Queue" | "Stack") as m); "create" ] ->
      Some m
    | _ -> None)
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ Location.txt; _ } : Longident.t Location.loc), _) ->
             match
               List.rev (try Longident.flatten txt with _ -> [])
             with
             | fld :: _ ->
               Hashtbl.mem st.mfields fld
               && not (Hashtbl.mem st.ifields fld)
             | [] -> false)
           fields ->
    Some "mutable-record"
  | _ -> None

let record_ref st loc path =
  match st.cur with
  | None -> ()
  | Some a -> (
    let p = unqual path in
    (match p with
    | [ "Domain"; "spawn" ] -> a.a_spawner <- true
    | [ "Mutex"; ("lock" | "protect") ] -> a.a_locks <- true
    | _ -> ());
    let interesting =
      match p with
      | [ x ] ->
        (not (is_module_seg x))
        && Hashtbl.mem st.topdefs x
        && not (Hashtbl.mem st.locals x)
      | m :: _ :: _ -> is_module_seg m && not (List.mem m stdlib_modules)
      | _ -> false
    in
    if interesting then
      a.a_refs <-
        {
          Summary.callee = p;
          rline = loc.Location.loc_start.Lexing.pos_lnum;
          rguarded = st.guard > 0;
          rallow_ds =
            List.exists (List.mem Rules.domain_safety) st.scopes
            || List.mem Rules.domain_safety st.file_allows;
        }
        :: a.a_refs)

let flush_cur st =
  match st.cur with
  | None -> ()
  | Some a ->
    st.s_funcs <-
      {
        Summary.fname = a.a_name;
        fline = a.a_line;
        fentry = a.a_entry;
        fspawner = a.a_spawner;
        flocks = a.a_locks;
        fallow_taint = a.a_allow_taint;
        refs = List.rev a.a_refs;
        nondet = List.rev a.a_nondet;
      }
      :: st.s_funcs;
    st.cur <- None

let rec unwrap_mod me =
  match me.pmod_desc with
  | Pmod_constraint (m, _) -> unwrap_mod m
  | _ -> me

let module_expr_path me =
  match (unwrap_mod me).pmod_desc with
  | Pmod_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

let record_open st me =
  match module_expr_path me with
  | Some p -> st.s_opens <- p :: st.s_opens
  | None -> ()

(* Pre-pass filling [topdefs] (bare structure-level value names, including
   inside inline submodules) and [mfields] (record fields declared
   [mutable] in this file) — both are needed before the main walk starts:
   bare-identifier references and mutable-record globals can appear before
   or after the definitions that make them meaningful. *)
let prepass st structure =
  let rec item si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match binding_name vb.pvb_pat with
          | Some n -> Hashtbl.replace st.topdefs n ()
          | None -> ())
        vbs
    | Pstr_type (_, decls) ->
      List.iter
        (fun d ->
          match d.ptype_kind with
          | Ptype_record fields ->
            List.iter
              (fun f ->
                if f.pld_mutable = Asttypes.Mutable then
                  Hashtbl.replace st.mfields f.pld_name.Location.txt ()
                else Hashtbl.replace st.ifields f.pld_name.Location.txt ())
              fields
          | _ -> ())
        decls
    | Pstr_module mb -> (
      match (unwrap_mod mb.pmb_expr).pmod_desc with
      | Pmod_structure items -> List.iter item items
      | _ -> ())
    | _ -> ()
  in
  List.iter item structure

(* --- the iterator ------------------------------------------------------ *)

let rec unwrap_funs_names acc e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) -> unwrap_funs_names (pat_names acc pat) body
  | Pexp_newtype (_, body) -> unwrap_funs_names acc body
  | _ -> (acc, e)

let make_iterator st =
  (* Structural recursion with scope bookkeeping: binding forms push their
     pattern names onto [st.locals] around the subtree where the binding
     is visible (so a parameter shadowing a structure-level name never
     becomes a call-graph edge), and guarded application heads bump
     [st.guard] around their arguments. *)
  let recurse self e =
    match e.pexp_desc with
    | Pexp_fun (_, dflt, pat, body) ->
      Option.iter (self.Ast_iterator.expr self) dflt;
      self.Ast_iterator.pat self pat;
      with_locals st (pat_names [] pat) (fun () ->
          self.Ast_iterator.expr self body)
    | Pexp_let (rf, vbs, body) ->
      let names = List.concat_map (fun vb -> pat_names [] vb.pvb_pat) vbs in
      if rf = Asttypes.Recursive then
        with_locals st names (fun () ->
            List.iter (self.Ast_iterator.value_binding self) vbs;
            self.Ast_iterator.expr self body)
      else begin
        List.iter (self.Ast_iterator.value_binding self) vbs;
        with_locals st names (fun () -> self.Ast_iterator.expr self body)
      end
    | Pexp_for (pat, e1, e2, _, body) ->
      self.Ast_iterator.pat self pat;
      self.Ast_iterator.expr self e1;
      self.Ast_iterator.expr self e2;
      with_locals st (pat_names [] pat) (fun () ->
          self.Ast_iterator.expr self body)
    | Pexp_apply (f, args) when is_guard_head (path_of f) ->
      self.Ast_iterator.expr self f;
      st.guard <- st.guard + 1;
      List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args;
      st.guard <- st.guard - 1
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let expr self e =
    let rules = Allowlist.allow_rules e.pexp_attributes in
    st.scopes <- rules :: st.scopes;
    (match e.pexp_desc with
    | Pexp_ident _ ->
      let p = path_of e in
      check_ident st e.pexp_loc p;
      record_ref st e.pexp_loc p
    | Pexp_apply (f, args) -> check_apply st e.pexp_loc f args
    | Pexp_open (od, _) -> record_open st od.popen_expr
    | _ -> ());
    (if is_hot_attr e.pexp_attributes then begin
       (* An expression-level hot marker: lint its body (past the parameter
          chain) in hot context. *)
       st.hot <- st.hot + 1;
       let names, body = unwrap_funs_names [] e in
       with_locals st names (fun () -> self.Ast_iterator.expr self body);
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
       recurse self e
     end);
    st.scopes <- List.tl st.scopes
  in
  let case self c =
    self.Ast_iterator.pat self c.pc_lhs;
    with_locals st (pat_names [] c.pc_lhs) (fun () ->
        Option.iter (self.Ast_iterator.expr self) c.pc_guard;
        self.Ast_iterator.expr self c.pc_rhs)
  in
  let value_binding self vb =
    let struct_level = st.at_struct in
    st.at_struct <- false;
    let rules = Allowlist.allow_rules vb.pvb_attributes in
    let hot = is_hot_attr vb.pvb_attributes in
    let sorted = contains_sort vb.pvb_expr in
    st.scopes <- rules :: st.scopes;
    if sorted then st.sorted_ctx <- st.sorted_ctx + 1;
    let started =
      if struct_level && Option.is_none st.cur then
        match binding_name vb.pvb_pat with
        | Some name -> (
          let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
          match classify_global st vb.pvb_expr with
          | Some kind ->
            st.s_globals <-
              { Summary.gname = dotted st name; gline = line; gkind = kind }
              :: st.s_globals;
            false
          | None ->
            st.cur <-
              Some
                {
                  a_name = dotted st name;
                  a_line = line;
                  a_entry = is_entry_attr vb.pvb_attributes;
                  a_allow_taint = List.mem Rules.determinism_taint rules;
                  a_spawner = false;
                  a_locks = false;
                  a_refs = [];
                  a_nondet = [];
                };
            true)
        | None -> false
      else false
    in
    (if hot then begin
       (* Skip the binding's own parameter chain (those [fun]s are the
          function being marked, not closures allocated inside it). *)
       st.hot <- st.hot + 1;
       self.Ast_iterator.pat self vb.pvb_pat;
       let names, body = unwrap_funs_names [] vb.pvb_expr in
       with_locals st names (fun () -> self.Ast_iterator.expr self body);
       st.hot <- st.hot - 1
     end
     else Ast_iterator.default_iterator.value_binding self vb);
    if started then flush_cur st;
    if sorted then st.sorted_ctx <- st.sorted_ctx - 1;
    st.scopes <- List.tl st.scopes
  in
  let rec handle_module self mb =
    match mb.pmb_name.Location.txt with
    | None -> Ast_iterator.default_iterator.module_binding self mb
    | Some name -> (
      match (unwrap_mod mb.pmb_expr).pmod_desc with
      | Pmod_ident { txt; _ } -> (
        match (try Some (Longident.flatten txt) with _ -> None) with
        | Some p -> st.s_aliases <- (name, p) :: st.s_aliases
        | None -> ())
      | Pmod_structure items ->
        st.mod_prefix <- name :: st.mod_prefix;
        List.iter (self.Ast_iterator.structure_item self) items;
        st.mod_prefix <- List.tl st.mod_prefix
      | _ -> Ast_iterator.default_iterator.module_binding self mb)
  and structure_item self si =
    match si.pstr_desc with
    | Pstr_attribute a when a.attr_name.Location.txt = "vstat.allow" ->
      st.file_allows <- Allowlist.payload_strings a.attr_payload @ st.file_allows;
      Ast_iterator.default_iterator.structure_item self si
    | Pstr_value (_, vbs) ->
      (* [at_struct] is re-armed per binding: a [let a = .. and b = ..]
         group defines several structure-level values. *)
      List.iter
        (fun vb ->
          st.at_struct <- true;
          self.Ast_iterator.value_binding self vb)
        vbs;
      st.at_struct <- false
    | Pstr_module mb -> handle_module self mb
    | Pstr_recmodule mbs -> List.iter (handle_module self) mbs
    | Pstr_open od ->
      record_open st od.popen_expr;
      Ast_iterator.default_iterator.structure_item self si
    | _ -> Ast_iterator.default_iterator.structure_item self si
  in
  {
    Ast_iterator.default_iterator with
    expr;
    case;
    value_binding;
    structure_item;
  }

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

let modname_of path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let analyze_file cfg path =
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
      cur = None;
      at_struct = false;
      guard = 0;
      mod_prefix = [];
      s_aliases = [];
      s_opens = [];
      s_globals = [];
      s_funcs = [];
      topdefs = Hashtbl.create 64;
      mfields = Hashtbl.create 16;
      ifields = Hashtbl.create 64;
      locals = Hashtbl.create 64;
    }
  in
  let src = read_source path in
  (match parse_implementation_string path src with
  | structure ->
    prepass st structure;
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
  flush_cur st;
  let diags = List.sort Diagnostic.compare st.diags in
  let summary =
    {
      Summary.sfile = path;
      modname = modname_of path;
      floors = List.sort_uniq String.compare st.file_allows;
      aliases = List.rev st.s_aliases;
      opens = List.rev st.s_opens;
      globals = List.rev st.s_globals;
      funcs = List.rev st.s_funcs;
      diags;
    }
  in
  (diags, summary)

let lint_file cfg path = fst (analyze_file cfg path)

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

(* Phase 1 is a serial map over the sorted file list, so phase 2 consumes
   summaries in path order and the report is deterministic.  The
   unused-export rule reads the typed trees found under the same paths;
   a source tree without them gives it nothing to check. *)
let run_deep ?excludes cfg paths =
  let files = collect_files ?excludes paths in
  let summaries = List.map (fun path -> snd (analyze_file cfg path)) files in
  let per_file = List.concat_map (fun s -> s.Summary.diags) summaries in
  let deep = Taint.analyze ~allow:cfg.allow summaries in
  let unused =
    Unused_export.check ~allow:cfg.allow
      ~cmts:(collect_files ?excludes ~suffix:".cmt" paths)
      ~cmtis:(collect_files ?excludes ~suffix:".cmti" paths)
  in
  {
    deep_files = List.length files;
    deep_diags = List.sort Diagnostic.compare (per_file @ deep @ unused);
  }
