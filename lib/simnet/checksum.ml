(* Reflected CRC-32, the Ethernet/zlib polynomial, computed by
   slicing-by-8: eight 256-entry tables let one step fold eight input
   bytes, read as two little-endian 32-bit words. Row [k] of [table]
   (entries [k * 256 .. k * 256 + 255]) advances a byte through [k]
   further zero bytes; row 0 is the classic byte-at-a-time table.

   The table is built eagerly at module initialisation: a lazy one
   raises [CamlinternalLazy.Undefined] when two sweep domains force it
   at once. *)

let poly = 0xEDB88320

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked little-endian 32-bit read, as an unsigned int; [crc32]
   validates the whole range before the loop. *)
let get32le b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let crc32 ?(off = 0) ?len b =
  let size = Bytes.length b in
  if off < 0 || off > size then invalid_arg "Checksum.crc32: out of bounds";
  let len = match len with Some l -> l | None -> size - off in
  if len < 0 || len > size - off then
    invalid_arg "Checksum.crc32: out of bounds";
  let t = table in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let w0 = !c lxor get32le b !i and w1 = get32le b (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (w0 land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((w0 lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((w0 lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (w0 lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (w1 land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((w1 lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((w1 lsr 16) land 0xFF))
      lxor Array.unsafe_get t (w1 lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
