(* Crash-safe file replacement: write-temp -> fsync -> atomic rename ->
   fsync(dir).  A reader never observes a half-written file — it sees
   either the old contents or the new, which is the property the runtime's
   checkpoint snapshots rely on when a run is killed mid-flush. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure_dir dir =
  mkdir_p dir;
  if dir <> "" && not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Atomic_io.ensure_dir: %s is not a directory" dir)

let fsync_dir dir =
  (* Directory fsync makes the rename itself durable.  Not every
     filesystem supports it (and it is not required for atomicity, only
     for durability of the name), so failures are ignored. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_file ~path contents =
  let dir = Filename.dirname path in
  ensure_dir dir;
  let tmp =
    Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
  in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let bytes = Bytes.unsafe_of_string contents in
      let len = Bytes.length bytes in
      let written = ref 0 in
      while !written < len do
        written :=
          !written + Unix.write fd bytes !written (len - !written)
      done;
      Unix.fsync fd);
  (try Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir dir

let read_file ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception End_of_file ->
          Error (Printf.sprintf "%s: truncated while reading" path))
