(* File-based suppressions: a checked-in [lint.allow] whose lines sanction
   specific rule/path(/line) combinations.  Complements the inline
   [@vstat.allow "rule"] attribute for sites where an attribute would be
   noisy (whole-file whitelists such as the runtime's wall-clock timing).

   Line grammar (one entry per line, '#' starts a comment):

     rule:path          -- rule allowed anywhere in files matching path
     rule:path:line     -- rule allowed on that exact line only

   [path] matches by suffix on whole '/'-separated components, so
   "lib/runtime/runtime.ml" matches both the repo-relative path and the
   copy dune places under its build sandbox. *)

type entry = { rule : string; path : string; line : int option }
type t = { entries : entry list }

let empty = { entries = [] }

exception Malformed of { file : string; lineno : int; text : string }

let parse_line ~file ~lineno raw =
  let text = String.trim raw in
  if text = "" || text.[0] = '#' then None
  else
    match String.split_on_char ':' text with
    | [ rule; path ] -> Some { rule = String.trim rule; path = String.trim path; line = None }
    | [ rule; path; line ] -> (
      match int_of_string_opt (String.trim line) with
      | Some n when n > 0 ->
        Some { rule = String.trim rule; path = String.trim path; line = Some n }
      | _ -> raise (Malformed { file; lineno; text }))
    | _ -> raise (Malformed { file; lineno; text })

let of_string ~file contents =
  let entries = ref [] in
  List.iteri
    (fun i raw ->
      match parse_line ~file ~lineno:(i + 1) raw with
      | Some e -> entries := e :: !entries
      | None -> ())
    (String.split_on_char '\n' contents);
  { entries = List.rev !entries }

let load file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let contents = really_input_string ic (in_channel_length ic) in
      of_string ~file contents)

let normalize p =
  (* Strip leading "./" segments so entry paths and scanned paths agree. *)
  let rec strip p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else p
  in
  strip p

(* [path_matches ~entry file]: the entry path equals the file path or is a
   trailing sequence of its components. *)
let path_matches ~entry file =
  let e = normalize entry and f = normalize file in
  e = f
  || (let le = String.length e and lf = String.length f in
      le < lf
      && String.sub f (lf - le) le = e
      && f.[lf - le - 1] = '/')

let allows t ~rule ~file ~line =
  List.exists
    (fun e ->
      e.rule = rule
      && path_matches ~entry:e.path file
      && match e.line with None -> true | Some l -> l = line)
    t.entries

(* The inline half: the rule ids named by [@vstat.allow "rule"] (or a
   tuple of ids) among [attrs]. *)
let payload_strings = function
  | Parsetree.PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
    let rec strings (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
      | Pexp_tuple es -> List.concat_map strings es
      | _ -> []
    in
    strings e
  | _ -> []

let allow_rules attrs =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.Location.txt = "vstat.allow" then
        payload_strings a.attr_payload
      else [])
    attrs
