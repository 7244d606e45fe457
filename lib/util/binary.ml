let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b v

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

exception Truncated of string

type cursor = { src : string; limit : int; mutable pos : int }

let need cur k what = if cur.pos + k > cur.limit then raise (Truncated what)

let get_u32 cur what =
  need cur 4 what;
  let v = Int32.to_int (String.get_int32_le cur.src cur.pos) land 0xFFFFFFFF in
  cur.pos <- cur.pos + 4;
  v

let get_i64 cur what =
  need cur 8 what;
  let v = String.get_int64_le cur.src cur.pos in
  cur.pos <- cur.pos + 8;
  v

let get_raw cur k what =
  need cur k what;
  let s = String.sub cur.src cur.pos k in
  cur.pos <- cur.pos + k;
  s

let get_str cur what = get_raw cur (get_u32 cur (what ^ " length")) what
