(** Protocol Management Module for VIA.

    VIA receives land in pre-posted registered buffers, so both
    directions run through the static-buffer machinery: one TM whose
    slots are VIA descriptors (up to 32 kB). The receiver keeps
    {!Config.via_posted_descriptors} descriptors posted, re-posting each
    buffer as it is consumed. *)

val capacity : int
val driver : (int -> Via.t) -> Driver.t
