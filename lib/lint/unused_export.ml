(* The [unused-export] rule: an exported [val] that no other compilation
   unit references.

   Exports are the [Tsig_value]s of every [.cmti] under the scanned paths
   (the repository's @lint scan finds them only under lib/), including
   values in nested module signatures.  References are the exactly
   resolved value uses {!Program} collects from every other unit's
   [.cmt] in the whole program, inside the scanned paths or not; a
   module used whole ([include M], a functor argument, a
   first-class [(module M)]) uses every value it exports.

   Only other units count: a value whose sole user is its own module only
   needs to leave the [.mli]. *)

open Typedtree

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

(* [check ~allow program ~cmtis]: one diagnostic per value exported by a
   [.cmti] that no other unit of [program] references. *)
let check ~allow (p : Program.t) ~cmtis =
  let exports =
    List.filter_map
      (fun path ->
        let infos = Cmt_format.read_cmt path in
        match (infos.cmt_annots, infos.cmt_sourcefile) with
        | Interface sg, Some src ->
          let dir = Filename.dirname path in
          Some (Program.unit_name ~dir infos.cmt_modname, src, sg)
        | _ -> None)
      cmtis
  in
  if exports = [] then []
  else begin
    let resolved refs =
      let t = Hashtbl.create 1024 in
      List.iter
        (fun (user, k) ->
          let ((u, _) as k) = Program.normalize p.aliases k in
          if not (String.equal u user) then Hashtbl.replace t k ())
        refs;
      t
    in
    let used = resolved p.uses and whole = resolved p.wholes in
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
