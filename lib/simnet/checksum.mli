(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

    Used by the simulated transports to *detect* payload corruption
    injected by {!Faults}: a frame whose checksum no longer matches is
    discarded by the receiver instead of being silently delivered, which
    is what turns injected corruption into a recoverable loss. *)

val crc32 : ?off:int -> ?len:int -> Bytes.t -> int
(** Checksum of [len] bytes of [b] starting at [off] (defaults: [off] 0,
    [len] the rest of the buffer). The result fits in 32 bits. Raises
    [Invalid_argument] unless [0 <= off <= length b] and
    [0 <= len <= length b - off]. *)
