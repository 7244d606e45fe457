(** Durable, self-validating run-journal snapshots (the on-disk half of
    {!Checkpoint}).

    A snapshot records a Monte Carlo run's identity (label, caller
    fingerprint, sample count, RNG base seed, retry-ladder depth), a
    per-sample completion bitmap and one encoded payload per completed
    sample.  The binary blob carries a magic string, a format version and
    a CRC-32 footer; writes go through {!Vstat_util.Atomic_io}
    (write-temp → fsync → atomic rename), so a reader — including a
    post-crash resume — observes either the previous complete snapshot or
    the new one, never a torn file.

    Decoding is paranoid by design: bad magic, version skew, CRC
    mismatch, truncation, out-of-range fields and bitmap/entry
    disagreement each yield a typed {!error}.  A snapshot is never
    silently merged into a mismatched run — {!check_identity} compares
    every identity field and names the offending one. *)

type identity = {
  label : string;       (** run label, also the snapshot's file stem *)
  fingerprint : string;
      (** caller-supplied run configuration digest (tech label, solver
          option ladder, injection spec, codec name, ...) *)
  n : int;              (** total samples in the run *)
  base_seed : int64;    (** substream family seed derived from the run RNG *)
  max_attempts : int;   (** retry-ladder depth the samples ran under *)
}

type entry = {
  index : int;     (** sample index *)
  attempts : int;  (** attempts the sample consumed (1 = first try) *)
  payload : string;    (** codec-encoded sample value *)
}

type snapshot = {
  identity : identity;
  entries : entry array;   (** completed samples, sorted by index *)
}

(** Every error payload names the snapshot file it describes ([path]), so
    layers that manage many journals — the checkpoint driver, the
    [Vstat_service] result cache — can report {e which} snapshot is bad.
    Errors produced away from the filesystem carry {!in_memory}. *)
type error =
  | Io of { path : string; detail : string }
  | Bad_magic of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Corrupt of { path : string; detail : string }
      (** CRC mismatch, truncation, inconsistent fields *)
  | Mismatch of { path : string; field : string; expected : string; found : string }
      (** identity disagreement found by {!check_identity} *)

exception Rejected of error
(** Raised by {!write} and by {!Checkpoint} when a resume is refused or a
    flush fails; registered with [Printexc] for readable reports. *)

val in_memory : string
[@@vstat.allow "unused-export"]
(** The [path] recorded when a blob is decoded from memory rather than a
    file (["<memory>"]).  Granted with {!encode} and {!decode} as a fuzz
    seam: test_checkpoint and test_service cut and mutate snapshots in
    memory. *)

val error_path : error -> string
(** The snapshot path carried by any {!error}. *)

val error_to_string : error -> string

val encode : snapshot -> string
[@@vstat.allow "unused-export"]
(** Serialize (including the CRC footer); the format version sits in the
    little-endian u32 after the 8-byte magic.  @raise Invalid_argument if
    an entry index falls outside [0, n). *)

val decode : ?path:string -> string -> (snapshot, error) result
[@@vstat.allow "unused-export"]
(** [path] (default {!in_memory}) is recorded in any error payload. *)

val write : path:string -> snapshot -> unit
(** Atomic, durable replacement of [path] ({!Vstat_util.Atomic_io}).
    @raise Rejected [(Io {path; detail})] when the file or its directory
    cannot be written. *)

val read : path:string -> (snapshot, error) result

val check_identity :
  ?path:string -> expected:identity -> identity -> (unit, error) result
(** [Error (Mismatch _)] naming the first differing field, if any; [path]
    (default {!in_memory}) names the snapshot the [found] identity was
    read from. *)
