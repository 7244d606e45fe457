let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_columns ~dir ~name columns =
  ensure_dir dir;
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," (List.map fst columns));
      output_char oc '\n';
      let depth =
        List.fold_left (fun acc (_, c) -> Int.max acc (Array.length c)) 0
          columns
      in
      for i = 0 to depth - 1 do
        let cells =
          List.map
            (fun (_, c) ->
              if i < Array.length c then Printf.sprintf "%.9g" c.(i) else "")
            columns
        in
        output_string oc (String.concat "," cells);
        output_char oc '\n'
      done);
  path
