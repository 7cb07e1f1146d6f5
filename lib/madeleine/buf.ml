type t = { data : Bytes.t; off : int; len : int }

let make ?(off = 0) ?len data =
  let len = Option.value len ~default:(Bytes.length data - off) in
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Buf.make: slice out of bounds";
  { data; off; len }

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then
    invalid_arg "Buf.sub: slice out of bounds";
  { data = t.data; off = t.off + pos; len }

let empty = { data = Bytes.empty; off = 0; len = 0 }

let stage t = { data = Bytes.sub t.data t.off t.len; off = 0; len = t.len }

let length t = t.len
let blit_out t dst dst_off = Bytes.blit t.data t.off dst dst_off t.len
let blit_in t src src_off = Bytes.blit src src_off t.data t.off t.len
let to_bytes t = Bytes.sub t.data t.off t.len
