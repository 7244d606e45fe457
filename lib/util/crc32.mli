(** CRC-32 (IEEE 802.3) checksums — the integrity footer format of the
    runtime's checkpoint snapshots.

    The 32-bit state is kept in a native [int] (always non-negative, fits
    on 64-bit OCaml), so digests compare with [Int.equal] and serialize as
    an unsigned 32-bit field. *)

val digest : string -> int
(** CRC-32 of the whole string.  [digest "123456789" = 0xCBF43926]. *)

val digest_sub : string -> pos:int -> len:int -> int
(** CRC-32 of a substring.  @raise Invalid_argument on out-of-bounds. *)
