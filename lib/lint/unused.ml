(* The [unused-export] and [unused-optional] rules: an exported [val] that
   no other compilation unit references, and an optional parameter of an
   exported [val] that no application anywhere writes.

   Exports are the [Tsig_value]s of every [.cmti] under the scanned paths
   (the repository's @lint scan finds them only under lib/), including
   values in nested module signatures.  References are the exactly
   resolved value uses {!Program} collects from every [.cmt] in the whole
   program, inside the scanned paths or not; a module used whole
   ([include M], a functor argument, a first-class [(module M)]) uses
   every value it exports, with every label.

   [unused-export] counts only other units: a value whose sole user is its
   own module only needs to leave the [.mli].  [unused-optional] counts
   every unit: a [?label] is written by an application that passes it as
   [~label] or [?label], or by a reference that does not apply the value
   at all (it may be applied anywhere). *)

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

(* The optional labels of a declared type, each at its [?label]. *)
let rec optionals ct =
  match ct.ctyp_desc with
  | Ttyp_arrow (Optional l, _, rest) -> (l, ct.ctyp_loc) :: optionals rest
  | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optionals rest
  | _ -> []

let floor_allows items =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_attribute a -> Allowlist.allow_rules [ a ]
      | _ -> [])
    items

let table keys =
  let t = Hashtbl.create 1024 in
  List.iter (fun k -> Hashtbl.replace t k ()) keys;
  t

(* [check program ~cmtis]: one diagnostic per value exported by a
   [.cmti] that no other unit of [program] references, and one per
   optional label of such a value that no unit writes. *)
let check (p : Program.t) ~cmtis =
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
    let norm = Program.normalize p.aliases in
    let other user k =
      let ((u, _) as k) = norm k in
      if String.equal u user then None else Some k
    in
    let used =
      table (List.filter_map (fun (user, k, _) -> other user k) p.uses)
    and whole = table (List.filter_map (fun (user, k) -> other user k) p.wholes)
    and whole_any = table (List.map (fun (_, k) -> norm k) p.wholes)
    and passed =
      table
        (List.concat_map
           (fun (_, k, labels) ->
             let k = norm k in
             match labels with
             | None -> [ (k, None) ]
             | Some ls -> List.map (fun l -> (k, Some l)) ls)
           p.uses)
    in
    (* A value is used whole when any module enclosing it is. *)
    let within whole (u, cs) =
      let rec go pre rest =
        Hashtbl.mem whole (u, List.rev pre)
        || match rest with [] -> false | c :: rest -> go (c :: pre) rest
      in
      go [] cs
    in
    List.concat_map
      (fun (modname, file, sg) ->
        let floor = floor_allows sg.sig_items in
        let unit_name =
          String.capitalize_ascii
            (Filename.remove_extension (Filename.basename file))
        in
        let finding rule (vd : value_description) (loc : Location.t) msg =
          let pos = loc.loc_start in
          let line = pos.pos_lnum and col = pos.pos_cnum - pos.pos_bol in
          if
            List.mem rule floor
            || List.mem rule (Allowlist.allow_rules vd.val_attributes)
            || Allowlist.allows p.allow ~rule ~file ~line
          then None
          else Some (Diagnostic.make ~rule ~file ~line ~col msg)
        in
        List.concat_map
          (fun (cs, vd) ->
            let k = (modname, cs) in
            let name = String.concat "." (unit_name :: cs) in
            let export =
              if Hashtbl.mem used k || within whole k then None
              else
                finding Rules.unused_export vd vd.val_loc
                  (Printf.sprintf
                     "val %s is exported but no other compilation unit \
                      uses it: delete it, drop it from the .mli, or grant \
                      it with a reason"
                     name)
            in
            let optional (l, loc) =
              if
                Hashtbl.mem passed (k, None)
                || Hashtbl.mem passed (k, Some l)
                || within whole_any k
              then None
              else
                finding Rules.unused_optional vd loc
                  (Printf.sprintf
                     "?%s of %s is never passed: make its default a \
                      constant and delete the label, or grant it with a \
                      reason"
                     l name)
            in
            Option.to_list export
            @ List.filter_map optional (optionals vd.val_desc))
          (List.rev (sig_values [] sg.sig_items [])))
      exports
  end
