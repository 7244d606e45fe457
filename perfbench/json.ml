(* Just enough JSON for the benchmark: printing its result line and reading
   BENCHMARK.json and saved result lines back in [compare]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integral values print without a fraction; everything else with the 17
   significant digits that round-trip a double.  JSON has no NaN or
   infinity, so those print as null. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kv)
    ^ "}"

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail what =
    raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos))
  in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= len && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' when !pos + 4 < len ->
          let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
          Buffer.add_utf_8_uchar b (Uchar.of_int code);
          pos := !pos + 4
        | _ -> fail "bad escape");
        incr pos;
        go ()
      | Some c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number_lit () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          let k = string_lit () in
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number_lit ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing characters";
  v

let member k = function
  | Obj kv -> List.assoc_opt k kv
  | _ -> None
