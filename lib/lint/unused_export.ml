(* The [unused-export] rule: an exported [val] that no other compilation
   unit references.

   Unlike the rest of the linter this rule reads typed trees, not source:
   the [.cmti] and [.cmt] files dune writes for [@check].  Exports are the
   [Tsig_value]s of every [.cmti] under the scanned paths (the repository's
   @lint scan finds them only under lib/), including values in nested
   module signatures.  References are the [Texp_ident] paths of every
   other unit's [.cmt].
   A name-based graph may drop an edge, and for this rule a dropped edge
   is a false "unused", so every path is resolved exactly:

   - a persistent identifier names a unit ([Vstat_stats__Descriptive]);
   - a module alias ([module D = Vstat_stats.Descriptive], [let module],
     or the [module Descriptive = Vstat_stats__Descriptive] lines of a
     dune wrapper) is keyed by its [Ident.t] inside its unit and, when it
     sits at structure level, by its dotted path for other units;
   - a module used whole ([include M], a functor argument, a first-class
     [(module M)]) uses every value it exports.

   Only other units count: a value whose sole user is its own module only
   needs to leave the [.mli].  The rule is blind to uses it cannot see:
   units outside the scanned paths, and the [.cmt] of a file that does
   not compile. *)

open Typedtree

(* A module or value as seen from outside its unit: the unit's module
   name and the dotted path inside it ([[]] is the unit itself). *)
type key = string * string list

type refs = {
  aliases : (key, key) Hashtbl.t;  (* structure-level aliases, all units *)
  mutable uses : (string * key) list;  (* referencing unit, value used *)
  mutable wholes : (string * key) list;  (* referencing unit, module used *)
}

(* Walk state for one [.cmt]. *)
type walk = {
  modname : string;
  locals : key Ident.Tbl.t;  (* module identifiers bound to aliases *)
  mutable path : string list option;
      (* dotted path of the enclosing structure while it is reachable
         from other units; [None] inside functors and expressions *)
}

let rec raw_key w = function
  | Path.Pident id ->
    if Ident.persistent id then Some (Ident.name id, [])
    else Ident.Tbl.find_opt w.locals id
  | Path.Pdot (p, s) ->
    Option.map (fun (u, cs) -> (u, cs @ [ s ])) (raw_key w p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

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

let iterator r w =
  let module I = Tast_iterator in
  let super = I.default_iterator in
  let expr self e =
    let saved = w.path in
    w.path <- None;
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter (fun k -> r.uses <- (w.modname, k) :: r.uses) (raw_key w p);
      super.expr self e
    | Texp_letmodule (id, name, _, me, body) -> (
      match alias_path me with
      | Some p ->
        bind_alias r w id name.txt p;
        self.I.expr self body
      | None -> super.expr self e)
    | _ -> super.expr self e);
    w.path <- saved
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
    | Tstr_module { mb_id; mb_name; mb_expr; _ } -> (
      match alias_path mb_expr with
      | Some p -> bind_alias r w mb_id mb_name.txt p
      | None ->
        let saved = w.path in
        (w.path <-
           match (saved, mb_name.txt) with
           | Some prefix, Some name when is_structure mb_expr ->
             Some (prefix @ [ name ])
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
  { super with expr; module_expr; structure_item; open_declaration }

let scan_implementation r (infos : Cmt_format.cmt_infos) =
  match infos.cmt_annots with
  | Implementation str ->
    let w =
      {
        modname = infos.cmt_modname;
        locals = Ident.Tbl.create 16;
        path = Some [];
      }
    in
    let it = iterator r w in
    it.structure it str
  | _ -> ()

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

(* Exported values of one interface: dotted path and declaration. *)
let rec sig_values prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd -> (prefix @ [ vd.val_name.txt ], vd) :: acc
      | Tsig_module
          { md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
        sig_values (prefix @ [ name ]) sg.sig_items acc
      | _ -> acc)
    acc items

let floor_allows items =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_attribute a -> Allowlist.allow_rules [ a ]
      | _ -> [])
    items

(* [check ~allow ~cmts ~cmtis]: one diagnostic per value exported by a
   [.cmti] that no other unit's [.cmt] references.  With no interface
   there is nothing to check and no [.cmt] is read. *)
let check ~allow ~cmts ~cmtis =
  let exports =
    List.filter_map
      (fun path ->
        let infos = Cmt_format.read_cmt path in
        match (infos.cmt_annots, infos.cmt_sourcefile) with
        | Interface sg, Some src -> Some (infos.cmt_modname, src, sg)
        | _ -> None)
      cmtis
  in
  if exports = [] then []
  else begin
    let r = { aliases = Hashtbl.create 64; uses = []; wholes = [] } in
    List.iter
      (fun path -> scan_implementation r (Cmt_format.read_cmt path))
      cmts;
    let resolved refs =
      let t = Hashtbl.create 1024 in
      List.iter
        (fun (user, k) ->
          let ((u, _) as k) = normalize r.aliases k in
          if not (String.equal u user) then Hashtbl.replace t k ())
        refs;
      t
    in
    let used = resolved r.uses and whole = resolved r.wholes in
    (* A value is used when it, or any module enclosing it, is. *)
    let is_used (u, cs) =
      let rec go pre rest =
        Hashtbl.mem whole (u, List.rev pre)
        || match rest with [] -> false | c :: rest -> go (c :: pre) rest
      in
      Hashtbl.mem used (u, cs) || go [] cs
    in
    List.concat_map
      (fun (modname, file, sg) ->
        let floor = floor_allows sg.sig_items in
        let unit_name =
          String.capitalize_ascii
            (Filename.remove_extension (Filename.basename file))
        in
        List.filter_map
          (fun (cs, vd) ->
            let loc = vd.val_loc.Location.loc_start in
            let line = loc.pos_lnum and col = loc.pos_cnum - loc.pos_bol in
            let rule = Rules.unused_export in
            if
              is_used (modname, cs)
              || List.mem rule floor
              || List.mem rule (Allowlist.allow_rules vd.val_attributes)
              || Allowlist.allows allow ~rule ~file ~line
            then None
            else
              Some
                (Diagnostic.make ~rule ~file ~line ~col
                   (Printf.sprintf
                      "val %s is exported but no other compilation unit \
                       uses it: delete it, drop it from the .mli, or grant \
                       it with a reason"
                      (String.concat "." (unit_name :: cs)))))
          (List.rev (sig_values [] sg.sig_items [])))
      exports
  end
