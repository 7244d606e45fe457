(* Rendering of a lint run: human file:line diagnostics for terminals and
   CI logs, machine-readable JSON for the uploaded CI artifact.

   All JSON string rendering funnels through {!json_string} here — the one
   escaping routine for rule ids, paths, messages and call-path steps — so
   a diagnostic message containing quotes, backslashes, newlines or raw
   control characters can never produce an invalid document.  The unit
   test in test/test_lint.ml feeds a pathological message through it. *)

type format = Text | Json

let format_of_string = function
  | "text" | "human" -> Some Text
  | "json" -> Some Json
  | _ -> None

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string s = "\"" ^ json_escape s ^ "\""

let diagnostic_json (d : Diagnostic.t) =
  let path =
    match d.Diagnostic.trace with
    | [] -> ""
    | steps ->
      Printf.sprintf {|,"path":[%s]|}
        (String.concat "," (List.map json_string steps))
  in
  Printf.sprintf {|{"rule":%s,"file":%s,"line":%d,"col":%d,"message":%s%s}|}
    (json_string d.Diagnostic.rule)
    (json_string d.Diagnostic.file)
    d.Diagnostic.line d.Diagnostic.col
    (json_string d.Diagnostic.message)
    path

let text oc ~files_scanned diags =
  List.iter (fun d -> output_string oc (Diagnostic.to_human d ^ "\n")) diags;
  let n = List.length diags in
  if n = 0 then Printf.fprintf oc "vstat_lint: %d files, clean\n" files_scanned
  else
    Printf.fprintf oc "vstat_lint: %d files, %d violation%s\n" files_scanned
      n
      (if n = 1 then "" else "s")

let json oc ~files_scanned diags =
  let rows = List.map diagnostic_json diags in
  Printf.fprintf oc
    {|{"tool":"vstat_lint","files_scanned":%d,"violations":[%s],"count":%d}|}
    files_scanned
    (String.concat "," rows)
    (List.length diags);
  output_string oc "\n"

let print fmt oc ~files_scanned diags =
  match fmt with
  | Text -> text oc ~files_scanned diags
  | Json -> json oc ~files_scanned diags
