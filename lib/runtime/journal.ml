(* Durable run-journal snapshots for checkpoint/resume.

   One snapshot is a single self-validating binary blob:

     magic "VSTATCKP" | u32 format version
     identity: label | fingerprint | n | base_seed | max_attempts
     completion bitmap (ceil(n/8) bytes, bit i = sample i completed)
     completed entries: (index, attempts, payload) sorted by index
     u32 CRC-32 footer over every preceding byte

   All integers little-endian.  The reader validates magic, version and
   CRC before parsing, bounds-checks every field, and cross-checks the
   bitmap against the entry list — a corrupted, truncated or
   version-skewed snapshot is rejected with a typed {!error}, never
   silently merged.  Durability comes from {!Vstat_util.Atomic_io}
   (write-temp -> fsync -> atomic rename), so a crash mid-flush leaves
   the previous snapshot intact. *)

type identity = {
  label : string;
  fingerprint : string;
  n : int;
  base_seed : int64;
  max_attempts : int;
}

type entry = { index : int; attempts : int; payload : string }

type snapshot = { identity : identity; entries : entry array }

(* Every payload names the snapshot file it describes, so a layer serving
   many journals (the result cache in Vstat_service) can report *which*
   snapshot is bad without re-threading the path out of band.  Errors
   produced away from the filesystem (decoding a string in memory) carry
   {!in_memory}. *)
type error =
  | Io of { path : string; detail : string }
  | Bad_magic of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Corrupt of { path : string; detail : string }
  | Mismatch of { path : string; field : string; expected : string; found : string }

exception Rejected of error

let in_memory = "<memory>"

let error_path = function
  | Io { path; _ }
  | Bad_magic { path }
  | Version_skew { path; _ }
  | Corrupt { path; _ }
  | Mismatch { path; _ } -> path

let error_to_string = function
  | Io { path; detail } ->
    Printf.sprintf "snapshot %s: IO error: %s" path detail
  | Bad_magic { path } ->
    Printf.sprintf "snapshot %s: not a vstat checkpoint snapshot (bad magic)"
      path
  | Version_skew { path; found; expected } ->
    Printf.sprintf
      "snapshot %s: format version %d, this build reads version %d" path
      found expected
  | Corrupt { path; detail } ->
    Printf.sprintf "snapshot %s: corrupt: %s" path detail
  | Mismatch { path; field; expected; found } ->
    Printf.sprintf
      "snapshot %s belongs to a different run: %s is %s, expected %s" path
      field found expected

let () =
  Printexc.register_printer (function
    | Rejected e -> Some (Printf.sprintf "Journal.Rejected(%s)" (error_to_string e))
    | _ -> None)

let magic = "VSTATCKP"
let version = 2

(* --- encoding ---------------------------------------------------------- *)

module B = Vstat_util.Binary

let bitmap_of_entries ~n entries =
  let bm = Bytes.make ((n + 7) / 8) '\000' in
  Array.iter
    (fun e ->
      if e.index < 0 || e.index >= n then
        invalid_arg
          (Printf.sprintf "Journal.encode: entry index %d outside [0,%d)"
             e.index n);
      let byte = e.index lsr 3 and bit = e.index land 7 in
      Bytes.set bm byte
        (Char.chr (Char.code (Bytes.get bm byte) lor (1 lsl bit))))
    entries;
  Bytes.unsafe_to_string bm

let encode snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  B.add_u32 b version;
  B.add_str b snap.identity.label;
  B.add_str b snap.identity.fingerprint;
  B.add_u32 b snap.identity.n;
  B.add_i64 b snap.identity.base_seed;
  B.add_u32 b snap.identity.max_attempts;
  Buffer.add_string b (bitmap_of_entries ~n:snap.identity.n snap.entries);
  B.add_u32 b (Array.length snap.entries);
  Array.iter
    (fun e ->
      B.add_u32 b e.index;
      B.add_u32 b e.attempts;
      B.add_str b e.payload)
    snap.entries;
  let crc = Vstat_util.Crc32.digest (Buffer.contents b) in
  B.add_u32 b crc;
  Buffer.contents b

(* --- decoding ---------------------------------------------------------- *)

(* Structural faults past the CRC check; truncation is
   {!Vstat_util.Binary.Truncated}. *)
exception Short of string

let decode ?(path = in_memory) s =
  let len = String.length s in
  let header = String.length magic + 4 in
  if len < header + 4 then
    Error (Corrupt { path; detail = "file too short for header" })
  else if String.sub s 0 (String.length magic) <> magic then
    Error (Bad_magic { path })
  else begin
    let found =
      Int32.to_int (String.get_int32_le s (String.length magic))
      land 0xFFFFFFFF
    in
    if found <> version then
      Error (Version_skew { path; found; expected = version })
    else begin
      let stored = Int32.to_int (String.get_int32_le s (len - 4)) land 0xFFFFFFFF in
      let computed = Vstat_util.Crc32.digest_sub s ~pos:0 ~len:(len - 4) in
      if stored <> computed then
        Error
          (Corrupt
             { path;
               detail =
                 Printf.sprintf "CRC mismatch (stored %08x, computed %08x)"
                   stored computed })
      else begin
        let cur = { B.src = s; limit = len - 4; pos = header } in
        match
          let label = B.get_str cur "label" in
          let fingerprint = B.get_str cur "fingerprint" in
          let n = B.get_u32 cur "n" in
          let base_seed = B.get_i64 cur "base_seed" in
          let max_attempts = B.get_u32 cur "max_attempts" in
          let bitmap = B.get_raw cur ((n + 7) / 8) "completion bitmap" in
          let n_entries = B.get_u32 cur "entry count" in
          (* Bound the count before allocating: a CRC-valid blob may still
             claim more entries than the run has samples. *)
          if n_entries > n then
            raise
              (Short
                 (Printf.sprintf "entry count %d exceeds sample count %d"
                    n_entries n));
          let entries =
            Array.init n_entries (fun _ ->
                let index = B.get_u32 cur "entry index" in
                let attempts = B.get_u32 cur "entry attempts" in
                let payload = B.get_str cur "entry payload" in
                { index; attempts; payload })
          in
          if cur.pos <> cur.limit then
            raise (Short "trailing bytes after entry list");
          (* Cross-checks: entries strictly increasing, inside [0,n), and
             in exact agreement with the completion bitmap. *)
          Array.iteri
            (fun k e ->
              if e.index < 0 || e.index >= n then
                raise (Short (Printf.sprintf "entry index %d outside [0,%d)"
                                e.index n));
              if k > 0 && entries.(k - 1).index >= e.index then
                raise (Short "entry indices not strictly increasing"))
            entries;
          let popcount = ref 0 in
          String.iter
            (fun c ->
              let byte = Char.code c in
              for bit = 0 to 7 do
                if byte land (1 lsl bit) <> 0 then incr popcount
              done)
            bitmap;
          if !popcount <> n_entries then
            raise
              (Short
                 (Printf.sprintf
                    "bitmap population %d disagrees with %d entries"
                    !popcount n_entries));
          Array.iter
            (fun e ->
              if
                Char.code bitmap.[e.index lsr 3] land (1 lsl (e.index land 7))
                = 0
              then
                raise
                  (Short
                     (Printf.sprintf "entry %d not marked in bitmap" e.index)))
            entries;
          {
            identity = { label; fingerprint; n; base_seed; max_attempts };
            entries;
          }
        with
        | snap -> Ok snap
        | exception Short detail -> Error (Corrupt { path; detail })
        | exception B.Truncated what ->
          Error (Corrupt { path; detail = "truncated while reading " ^ what })
      end
    end
  end

(* --- IO ---------------------------------------------------------------- *)

let write ~path snap = Vstat_util.Atomic_io.write_file ~path (encode snap)

let read ~path =
  match Vstat_util.Atomic_io.read_file ~path with
  | Error detail -> Error (Io { path; detail })
  | Ok s -> decode ~path s

let check_identity ?(path = in_memory) ~expected found =
  let fail field expected found =
    Error (Mismatch { path; field; expected; found })
  in
  if not (String.equal expected.label found.label) then
    fail "label" expected.label found.label
  else if not (String.equal expected.fingerprint found.fingerprint) then
    fail "fingerprint" expected.fingerprint found.fingerprint
  else if expected.n <> found.n then
    fail "sample count" (string_of_int expected.n) (string_of_int found.n)
  else if not (Int64.equal expected.base_seed found.base_seed) then
    fail "RNG base seed"
      (Int64.to_string expected.base_seed)
      (Int64.to_string found.base_seed)
  else if expected.max_attempts <> found.max_attempts then
    fail "retry ladder depth"
      (string_of_int expected.max_attempts)
      (string_of_int found.max_attempts)
  else Ok ()
