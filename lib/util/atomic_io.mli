(** Crash-safe whole-file IO: write-temp → [fsync] → atomic rename →
    [fsync] of the containing directory.

    The atomicity contract (POSIX [rename(2)]) guarantees a concurrent or
    post-crash reader observes either the previous contents of [path] or
    the complete new contents, never a torn intermediate — the property
    the checkpoint {!Vstat_runtime} journal builds its recovery story on. *)

val write_file : path:string -> string -> unit
(** Replace [path] with [contents] atomically and durably.  The parent
    directory is created if missing.  @raise Unix.Unix_error on IO
    failure (the temp file is removed on a failed rename). *)

val read_file : path:string -> (string, string) result
(** Whole-file read; [Error msg] if the file is missing or unreadable. *)

val ensure_dir : string -> unit
(** [mkdir -p]; [""] names the current directory.  @raise Invalid_argument
    if [dir] exists as a non-directory. *)
