(** Protocol Management Module for SBP, the static-buffer kernel
    protocol — protocol-owned buffers on {e both} sides (§6.1's worst
    case for gateway forwarding). The sender stages into a pool buffer
    obtained from SBP (blocking on the pool: natural back-pressure); the
    receiver copies out of the delivered pool buffer and releases it. *)

val capacity : int
val driver : (int -> Sbp.t) -> Driver.t
