(* The typed whole program every rule reads: one [Tast_iterator] walk per
   [.cmt] that dune writes for @check.

   A name-based match may miss a use, and a missed use is a missed
   finding (or a false "unused"), so every path is resolved exactly:

   - a persistent identifier names a unit ([Vstat_stats__Descriptive],
     [Stdlib], [Unix]);
   - a module alias ([module D = Vstat_stats.Descriptive], [let module],
     or the [module Descriptive = Vstat_stats__Descriptive] lines of a
     dune wrapper) is keyed by its [Ident.t] inside its unit and, when it
     sits at structure level, by its dotted path for other units;
   - a structure-level value or submodule is keyed by its [Ident.t] too,
     so a local binding that shadows it is never mistaken for it;
   - [open M] needs no tracking: the typed path of every identifier is
     already qualified.

   Executable modules of different directories share the unit names
   [Dune__exe__*], so those are qualified by their object directory.

   The walk checks the six per-file rules at each identifier and
   application, with the [@vstat.allow] scopes, the file floor and the
   allowlist applied on the spot.  It records, for unused-export and
   unused-optional, every value and whole-module use, with the labels an
   application writes; for determinism-taint and domain-safety, one
   [node] per structure-level [let] with its identifier uses (the call and
   access edges), its direct nondeterminism sources (its unsuppressed
   determinism findings, so a sanctioned site never taints) and its guard
   context.  Blind spot: a file that does not compile has no [.cmt], and
   the scan refuses to cover it ({!Engine.run}). *)

open Typedtree

(* A module or value as seen from outside its unit: the unit's module
   name and the dotted path inside it ([[]] is the unit itself). *)
type key = string * string list

(* One identifier use inside a node, at its source position. *)
type access = {
  target : key;
  line : int;
  col : int;
  guarded : bool;  (* under Mutex.protect / Atomic.* / Domain.DLS *)
  allow_ds : bool;  (* "domain-safety" allowed at the use *)
}

type node = {
  key : key;
  file : string;
  line : int;
  state : string option;
      (* module-level mutable state ("ref", "Hashtbl", ...,
         "mutable-record"); [None] for every other binding *)
  entry : bool;  (* [@vstat.entry] *)
  allow_taint : bool;  (* binding carries [@vstat.allow "determinism-taint"] *)
  mutable spawner : bool;  (* uses Domain.spawn *)
  mutable locks : bool;  (* uses Mutex.lock / Mutex.protect *)
  mutable accesses : access list;  (* in (line, col) order once scanned *)
  mutable sources : (int * string) list;  (* line, source as written *)
}

(* A polymorphic comparison site whose verdict waits for every type
   declaration: its argument type, the resolver of the unit it sits in, and
   whether a scope, a floor already in force or the allowlist sanctions it,
   so a floor covers only the sites after it, as for every other rule. *)
type compare_site = {
  c_file : string;
  c_loc : Location.t;
  c_op : string;
  c_ty : Types.type_expr;
  c_resolve : Path.t -> key option;
  c_sanctioned : bool;
}

type t = {
  allow : Allowlist.t;
  aliases : (key, key) Hashtbl.t;  (* structure-level aliases, all units *)
  types : (key, Types.type_declaration * (Path.t -> key option)) Hashtbl.t;
      (* every type declaration, all units, with its unit's resolver *)
  mutable compares : compare_site list;
  mutable uses : (string * key * string list option) list;
      (* referencing unit, value used, and the labels written when the use
         heads an application ([None]: not applied, so any label) *)
  mutable wholes : (string * key) list;  (* referencing unit, module used *)
  nodes : (key, node) Hashtbl.t;
  mutable order : node list;  (* (file, line) order once scanned *)
  mutable floors : (string * string) list;  (* [@@@vstat.allow]: file, rule *)
  mutable files : string list;  (* source file of every walked unit *)
  mutable diags : Diagnostic.t list;  (* per-file rule findings *)
}

(* Walk state for one [.cmt]. *)
type walk = {
  modname : string;
  dir : string;  (* object directory, qualifying [Dune__exe] units *)
  file : string;
  layer : string option;  (* see [layer] *)
  locals : key Ident.Tbl.t;  (* module and value identifiers *)
  mutable path : string list option;
      (* dotted path of the enclosing structure while it is reachable
         from other units; [None] inside functors and expressions *)
  mutable callee : (expression * string list) option;
      (* the head of the application being walked, with its labels *)
  mutable cur : node option;  (* enclosing structure-level binding *)
  mutable guard : int;
  mutable scopes : string list list;  (* [@vstat.allow] stack *)
  mutable hot : int;  (* [@vstat.hot] bindings being walked *)
  mutable sorted : int;  (* enclosing bindings that contain a sort *)
}

let unit_name ~dir name =
  if String.starts_with ~prefix:"Dune__exe" name then dir ^ ":" ^ name
  else name

let rec raw_key w = function
  | Path.Pident id ->
    if Ident.persistent id then Some (unit_name ~dir:w.dir (Ident.name id), [])
    else Ident.Tbl.find_opt w.locals id
  | Path.Pdot (p, s) ->
    Option.map (fun (u, cs) -> (u, cs @ [ s ])) (raw_key w p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

(* The path inside the standard library, [[]] for anything else. *)
let stdlib = function Some ("Stdlib", cs) -> cs | _ -> []

let stdlib_of w e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> stdlib (raw_key w p)
  | _ -> []

let same_file a b =
  Allowlist.path_matches ~entry:a b || Allowlist.path_matches ~entry:b a

(* The suppressions wider than an attribute: the file floor and the
   checked-in allowlist. *)
let allowed p ~rule ~file ~line =
  List.mem (file, rule) p.floors || Allowlist.allows p.allow ~rule ~file ~line

(* The [d] of the first [lib/d/] directory on a path, so the fixture
   corpus's [test/lint_fixtures/lib/circuit/] is the circuit layer. *)
let rec layer = function
  | "lib" :: d :: _ :: _ -> Some d
  | _ :: rest -> layer rest
  | [] -> None

(* --- the per-file rules ------------------------------------------------- *)

(* Report [rule] at [loc] unless a scope, the floor or the allowlist
   sanctions it; [true] when reported. *)
let emit r w ~rule (loc : Location.t) message =
  let pos = loc.loc_start in
  let line = pos.pos_lnum and col = pos.pos_cnum - pos.pos_bol in
  let live =
    not
      (List.exists (List.mem rule) w.scopes
      || allowed r ~rule ~file:w.file ~line)
  in
  if live then
    r.diags <- Diagnostic.make ~rule ~file:w.file ~line ~col message :: r.diags;
  live

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

(* The determinism finding for a use of [k], if any. *)
let determinism w k =
  match k with
  | Some ("Stdlib", "Random" :: _) ->
    Some
      ( Rules.determinism_random,
        "Random.* breaks jobs:1 == jobs:N determinism; draw from a \
         counter-indexed Vstat_util.Rng substream instead (allowed only in \
         lib/util/rng.ml)" )
  | Some ("Unix", [ ("gettimeofday" | "time") ])
  | Some ("Stdlib", [ "Sys"; "time" ])
  | Some ("Monotonic_clock", [ "now" ]) ->
    Some
      ( Rules.determinism_wallclock,
        "wall-clock reads are forbidden outside the sanctioned clock \
         (Vstat_runtime.Deadline.now_ns): sample values must be pure \
         functions of (index, substream)" )
  | Some ("Stdlib", [ "Hashtbl"; (("iter" | "fold") as fn) ]) when w.sorted = 0
    ->
    Some
      ( Rules.determinism_hashtbl,
        Printf.sprintf
          "Hashtbl.%s traverses buckets in unspecified order and no \
           adjacent List.sort/sort_uniq/Array.sort re-establishes a total \
           order in this function"
          fn )
  | _ -> None

(* Every per-file rule that looks at one identifier [e] resolving to [k]. *)
let check_ident r w (e : expression) k (lid : Longident.t Location.loc) =
  let loc = e.exp_loc in
  (match determinism w k with
  | Some (rule, msg) when emit r w ~rule loc msg ->
    Option.iter
      (fun n ->
        let written =
          match Longident.flatten lid.txt with
          | "Stdlib" :: rest -> rest
          | p -> p
          | exception _ -> []
        in
        n.sources <-
          (loc.loc_start.pos_lnum, String.concat "." written) :: n.sources)
      w.cur
  | _ -> ());
  let cs = stdlib k in
  (match (cs, Types.get_desc e.exp_type) with
  | [ (("=" | "<>" | "compare" | "min" | "max") as op) ], Tarrow (_, a, _, _)
    ->
    r.compares <-
      {
        c_file = w.file;
        c_loc = loc;
        c_op = op;
        c_ty = a;
        c_resolve = raw_key w;
        c_sanctioned =
          List.exists (List.mem Rules.float_compare) w.scopes
          || allowed r ~rule:Rules.float_compare ~file:w.file
               ~line:loc.loc_start.pos_lnum;
      }
      :: r.compares
  | _ -> ());
  (* failwith, invalid_arg and raise Not_found are all banned in the
     circuit, cells and device layers; only failwith in linalg and opt. *)
  (match (cs, w.layer) with
  | [ (("failwith" | "invalid_arg") as fn) ], Some ("circuit" | "cells" | "device")
    ->
    ignore
      (emit r w ~rule:Rules.exn_discipline loc
         (Printf.sprintf
            "%s in the circuit/cells/device layers defeats typed failure \
             classification; raise Diag.Solver_error (or mark the \
             sanctioned precondition with [@vstat.allow \"exn-discipline\"])"
            fn))
  | [ "failwith" ], Some ("linalg" | "opt") ->
    ignore
      (emit r w ~rule:Rules.exn_discipline loc
         "failwith in linalg/opt defeats typed failure classification; \
          raise Vstat_linalg.Linalg_error.Numeric_error instead")
  | _ -> ());
  if w.hot > 0 then
    let hot msg = ignore (emit r w ~rule:Rules.hot_path loc msg) in
    match cs with
    | ("Printf" | "Format") :: _ ->
      hot
        "Printf/Format in a [@vstat.hot] body allocates and formats on the \
         hot path"
    | [ "List"; fn ] when List.mem fn hot_banned_list_fns ->
      hot
        (Printf.sprintf
           "List.%s in a [@vstat.hot] body allocates per call; use the \
            preallocated workspace / an index loop"
           fn)
    | [ "Array"; fn ] when List.mem fn hot_banned_array_fns ->
      hot
        (Printf.sprintf
           "Array.%s in a [@vstat.hot] body allocates a fresh array per \
            call; reuse a preallocated workspace (Array.fill/blit and \
            index loops stay allocation-free)"
           fn)
    | [ ("@" | "^") ] ->
      hot "list/string append in a [@vstat.hot] body allocates per call"
    | _ -> ()

let is_not_found w = function
  | Texp_construct (_, { cstr_tag = Cstr_extension (p, _); _ }, []) ->
    stdlib (raw_key w p) = [ "Not_found" ]
  | _ -> false

(* The per-file rules that look at a whole expression. *)
let check_expr r w e =
  match (e.exp_desc, w.layer) with
  | Texp_apply (f, [ (_, Some a) ]), Some ("circuit" | "cells" | "device")
    when List.mem (stdlib_of w f) [ [ "raise" ]; [ "raise_notrace" ] ]
         && is_not_found w a.exp_desc ->
    ignore
      (emit r w ~rule:Rules.exn_discipline e.exp_loc
         "raise Not_found in the circuit/cells/device layers is untyped; use \
          a Diag diagnostic or Invalid_argument via a sanctioned site")
  | Texp_function _, _ when w.hot > 0 ->
    ignore
      (emit r w ~rule:Rules.hot_path e.exp_loc
         "closure definition inside a [@vstat.hot] body allocates per call; \
          hoist it to a toplevel function taking its environment as \
          arguments")
  | _ -> ()

let contains_sort w e =
  let module I = Tast_iterator in
  let found = ref false in
  let expr self e =
    (match stdlib_of w e with
    | [ ("List" | "Array"); ("sort" | "stable_sort" | "sort_uniq" | "fast_sort") ]
      ->
      found := true
    | _ -> ());
    I.default_iterator.expr self e
  in
  let it = { I.default_iterator with expr } in
  it.expr it e;
  !found

let has_attr name attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

(* The body past a binding's own parameter chain, default arguments
   included. *)
let rec unwrap_funs e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    unwrap_funs c_rhs
  | Texp_let (_, _, body) when has_attr "#default" e.exp_attributes ->
    unwrap_funs body
  | _ -> e

(* --- the program graph --------------------------------------------------- *)

(* Accesses in the arguments of these heads execute inside a guarded
   region (or are themselves atomic operations). *)
let is_guard = function
  | [ "Mutex"; "protect" ] | "Domain" :: "DLS" :: _ | "Atomic" :: _ -> true
  | _ -> false

(* The structure-level mutable state domain-safety tracks.  Arrays,
   [Atomic.t] and [Lazy.t] bindings are deliberately excluded: atomics
   are the sanctioned mechanism, and flagging every preallocated array
   would drown the rule in noise the per-access guard analysis cannot
   resolve.  A record is mutable when its type has a mutable label. *)
let state_kind w e =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
    match (stdlib_of w f, args) with
    | [ "ref" ], [ _ ] -> Some "ref"
    | [ (("Hashtbl" | "Buffer" | "Queue" | "Stack") as m); "create" ], _ ->
      Some m
    | _ -> None)
  | Texp_record { fields; _ }
    when Array.exists
           (fun ((l : Types.label_description), _) ->
             l.lbl_mut = Asttypes.Mutable)
           fields ->
    Some "mutable-record"
  | _ -> None

(* [module X = P] and its implicitly constrained form. *)
let rec alias_path me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, Tmodtype_implicit, _) -> alias_path me
  | _ -> None

let rec is_structure me =
  match me.mod_desc with
  | Tmod_structure _ -> true
  | Tmod_constraint (me, _, _, _) -> is_structure me
  | _ -> false

let bind_alias r w id name p =
  match raw_key w p with
  | None -> ()
  | Some target -> (
    Option.iter (fun id -> Ident.Tbl.replace w.locals id target) id;
    match (w.path, name) with
    | Some prefix, Some name ->
      Hashtbl.replace r.aliases (w.modname, prefix @ [ name ]) target
    | _ -> ())

(* The labels an application writes.  The typer fills an omitted optional
   argument with a [None] at [Location.none].  A label a partial
   application leaves to its result ([None] in [args], or an arrow of
   [ty]) may still be passed to that result, so it counts. *)
let written args ty =
  let rec pending ty =
    match Types.get_desc ty with
    | Tarrow ((Labelled l | Optional l), _, rest, _) -> l :: pending rest
    | Tarrow (Nolabel, _, rest, _) -> pending rest
    | _ -> []
  in
  List.filter_map
    (fun (l, a) ->
      match (l, a) with
      | Asttypes.Nolabel, _ -> None
      | Optional _, Some a when Location.is_none a.exp_loc -> None
      | (Labelled s | Optional s), _ -> Some s)
    args
  @ pending ty

let use r w (e : expression) p lid =
  let k = raw_key w p in
  check_ident r w e k lid;
  let labels =
    match w.callee with Some (f, ls) when f == e -> Some ls | _ -> None
  in
  Option.iter (fun k -> r.uses <- (w.modname, k, labels) :: r.uses) k;
  match w.cur with
  | None -> ()
  | Some n ->
    let pos = e.exp_loc.Location.loc_start in
    let line = pos.pos_lnum and col = pos.pos_cnum - pos.pos_bol in
    (match stdlib k with
    | [ "Domain"; "spawn" ] -> n.spawner <- true
    | [ "Mutex"; ("lock" | "protect") ] -> n.locks <- true
    | _ -> ());
    Option.iter
      (fun target ->
        let allow_ds = List.exists (List.mem Rules.domain_safety) w.scopes in
        n.accesses <-
          { target; line; col; guarded = w.guard > 0; allow_ds } :: n.accesses)
      k

let binding_name vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, name) | Tpat_alias (_, id, name) -> Some (id, name.txt)
  | _ -> None

(* One node per named structure-level binding of a reachable structure;
   identifiers are registered before any body is walked, so a [let rec]
   group sees itself. *)
let structure_value r w self vbs =
  let named =
    List.map
      (fun vb ->
        match (binding_name vb, w.path) with
        | Some (id, name), Some prefix ->
          let key = (w.modname, prefix @ [ name ]) in
          Ident.Tbl.replace w.locals id key;
          (vb, Some key)
        | _ -> (vb, None))
      vbs
  in
  List.iter
    (fun (vb, key) ->
      match key with
      | None -> self.Tast_iterator.value_binding self vb
      | Some key ->
        let n =
          {
            key;
            file = w.file;
            line = vb.vb_loc.loc_start.pos_lnum;
            state = state_kind w vb.vb_expr;
            entry = has_attr "vstat.entry" vb.vb_attributes;
            allow_taint =
              List.mem Rules.determinism_taint
                (Allowlist.allow_rules vb.vb_attributes);
            spawner = false;
            locks = false;
            accesses = [];
            sources = [];
          }
        in
        Hashtbl.replace r.nodes key n;
        r.order <- n :: r.order;
        w.cur <- Some n;
        self.value_binding self vb;
        w.cur <- None)
    named

let iterator r w =
  let module I = Tast_iterator in
  let super = I.default_iterator in
  let expr self e =
    let saved = w.path in
    w.path <- None;
    w.scopes <- Allowlist.allow_rules e.exp_attributes :: w.scopes;
    check_expr r w e;
    (match e.exp_desc with
    | Texp_ident (p, lid, _) ->
      use r w e p lid;
      super.expr self e
    | Texp_apply (f, args) when is_guard (stdlib_of w f) ->
      self.expr self f;
      w.guard <- w.guard + 1;
      List.iter (fun (_, a) -> Option.iter (self.expr self) a) args;
      w.guard <- w.guard - 1
    | Texp_apply (({ exp_desc = Texp_ident _; _ } as f), args) ->
      w.callee <- Some (f, written args e.exp_type);
      super.expr self e
    | Texp_letmodule (id, name, _, me, body) -> (
      match alias_path me with
      | Some p ->
        bind_alias r w id name.txt p;
        self.expr self body
      | None -> super.expr self e)
    | _ -> super.expr self e);
    w.scopes <- List.tl w.scopes;
    w.path <- saved
  (* A hot binding's own parameter chain is the function being marked,
     not a closure allocated inside it. *)
  and value_binding self vb =
    w.scopes <- Allowlist.allow_rules vb.vb_attributes :: w.scopes;
    let sorted = contains_sort w vb.vb_expr in
    if sorted then w.sorted <- w.sorted + 1;
    (if has_attr "vstat.hot" vb.vb_attributes then begin
       w.hot <- w.hot + 1;
       self.I.expr self (unwrap_funs vb.vb_expr);
       w.hot <- w.hot - 1
     end
     else super.value_binding self vb);
    if sorted then w.sorted <- w.sorted - 1;
    w.scopes <- List.tl w.scopes
  and module_expr self me =
    match me.mod_desc with
    | Tmod_ident (p, _) ->
      Option.iter
        (fun k -> r.wholes <- (w.modname, k) :: r.wholes)
        (raw_key w p)
    | Tmod_structure _ | Tmod_constraint _ -> super.module_expr self me
    | _ ->
      let saved = w.path in
      w.path <- None;
      super.module_expr self me;
      w.path <- saved
  and structure_item self si =
    match si.str_desc with
    | Tstr_value (_, vbs) when Option.is_none w.cur ->
      structure_value r w self vbs
    | Tstr_attribute a ->
      List.iter
        (fun rule -> r.floors <- (w.file, rule) :: r.floors)
        (Allowlist.allow_rules [ a ])
    | Tstr_type (_, decls) ->
      (* Keyed like values; a type out of other units' reach (inside a
         functor or an expression) gets a key of its own. *)
      List.iter
        (fun d ->
          let key =
            match w.path with
            | Some prefix -> (w.modname, prefix @ [ d.typ_name.txt ])
            | None -> (w.modname, [ "<local>"; Ident.unique_name d.typ_id ])
          in
          Ident.Tbl.replace w.locals d.typ_id key;
          Hashtbl.replace r.types key (d.typ_type, raw_key w))
        decls;
      super.structure_item self si
    | Tstr_module { mb_id; mb_name; mb_expr; _ } -> (
      match alias_path mb_expr with
      | Some p -> bind_alias r w mb_id mb_name.txt p
      | None ->
        let saved = w.path in
        (w.path <-
           match (saved, mb_name.txt) with
           | Some prefix, Some name when is_structure mb_expr ->
             let path = prefix @ [ name ] in
             Option.iter
               (fun id -> Ident.Tbl.replace w.locals id (w.modname, path))
               mb_id;
             Some path
           | _ -> None);
        super.structure_item self si;
        w.path <- saved)
    | _ -> super.structure_item self si
  (* [open M] brings names into scope; the uses are the idents. *)
  and open_declaration self od =
    match alias_path od.open_expr with
    | Some _ -> ()
    | None -> super.open_declaration self od
  in
  { super with expr; value_binding; module_expr; structure_item; open_declaration }

(* Follow structure-level aliases until the key names a unit's own
   module path.  The step bound stops a (malformed) alias cycle. *)
let normalize aliases (u, cs) =
  let rec go steps (u, cs) =
    let rec split pre = function
      | [] -> None
      | c :: rest -> (
        let pre = pre @ [ c ] in
        match Hashtbl.find_opt aliases (u, pre) with
        | Some (u', cs') -> Some (u', cs' @ rest)
        | None -> split pre rest)
    in
    if steps = 0 then (u, cs)
    else match split [] cs with Some k -> go (steps - 1) k | None -> (u, cs)
  in
  go 64 (u, cs)

(* Whether [ty] holds a float: float itself; a tuple, array, list or
   option of one; a record with a field that holds one; or an abbreviation
   whose manifest does.  [resolve] keys the paths of the unit [ty] was
   written in, and [seen] stops a recursive type. *)
let rec holds_float r ~resolve ~seen ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) when Path.same p Predef.path_float -> true
  | Tconstr (p, [ a ], _)
    when List.exists (Path.same p)
           Predef.[ path_array; path_list; path_option ] ->
    holds_float r ~resolve ~seen a
  | Ttuple ts -> List.exists (holds_float r ~resolve ~seen) ts
  | Tconstr (p, _, _) -> (
    match Option.map (normalize r.aliases) (resolve p) with
    | Some k when not (List.mem k !seen) -> (
      seen := k :: !seen;
      match Hashtbl.find_opt r.types k with
      | Some ({ type_kind = Type_record (labels, _); _ }, resolve) ->
        List.exists
          (fun (l : Types.label_declaration) ->
            holds_float r ~resolve ~seen l.ld_type)
          labels
      | Some ({ type_kind = Type_abstract; type_manifest = Some m; _ }, resolve)
        ->
        holds_float r ~resolve ~seen m
      | _ -> false)
    | _ -> false)
  | _ -> false

(* The float-compare verdict of every comparison site, once every unit's
   type declarations are known. *)
let decide_compares r =
  List.iter
    (fun c ->
      let pos = c.c_loc.loc_start in
      let line = pos.pos_lnum and col = pos.pos_cnum - pos.pos_bol in
      let rule = Rules.float_compare in
      if
        (not c.c_sanctioned)
        && holds_float r ~resolve:c.c_resolve ~seen:(ref []) c.c_ty
      then
        r.diags <-
          Diagnostic.make ~rule ~file:c.c_file ~line ~col
            (Printf.sprintf
               "polymorphic %s on a type that holds a float; use \
                Float.equal / Float.compare or an explicit comparator \
                (Int64.bits_of_float for bit identity)"
               c.c_op)
          :: r.diags)
    r.compares

(* [scan ~allow cmts]: walk every [.cmt], checking the per-file rules
   against [allow] on the way; float-compare is decided after the walk. *)
let scan ~allow cmts =
  let r =
    {
      allow;
      aliases = Hashtbl.create 64;
      types = Hashtbl.create 1024;
      compares = [];
      uses = [];
      wholes = [];
      nodes = Hashtbl.create 1024;
      order = [];
      floors = [];
      files = [];
      diags = [];
    }
  in
  List.iter
    (fun path ->
      let infos = Cmt_format.read_cmt path in
      match infos.cmt_annots with
      | Implementation str ->
        let file = Option.value ~default:path infos.cmt_sourcefile in
        r.files <- file :: r.files;
        let dir = Filename.dirname path in
        let w =
          {
            modname = unit_name ~dir infos.cmt_modname;
            dir;
            file;
            layer = layer (String.split_on_char '/' file);
            locals = Ident.Tbl.create 64;
            path = Some [];
            callee = None;
            cur = None;
            guard = 0;
            scopes = [];
            hot = 0;
            sorted = 0;
          }
        in
        let it = iterator r w in
        it.structure it str
      | _ -> ())
    cmts;
  decide_compares r;
  let resolve (a : access) = { a with target = normalize r.aliases a.target } in
  r.order <-
    List.sort
      (fun (a : node) (b : node) ->
        match String.compare a.file b.file with
        | 0 -> Int.compare a.line b.line
        | c -> c)
      r.order;
  List.iter
    (fun n ->
      n.accesses <-
        List.sort
          (fun (a : access) b ->
            match Int.compare a.line b.line with
            | 0 -> Int.compare a.col b.col
            | c -> c)
          (List.map resolve n.accesses))
    r.order;
  r
