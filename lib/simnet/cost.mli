(** Common host-side cost charges, shared by every layer that models CPU
    work (staging copies, buffer management). *)

val memcpy : int -> unit
(** Charges the calling thread the time to copy [n] bytes through main
    memory at {!Netparams.memcpy_rate_mb_s}. Zero bytes cost nothing. *)

val pin : int -> unit
(** Charges the calling thread the registration (pin-down) cost for a
    buffer of [n] bytes: {!Netparams.reg_base} plus
    {!Netparams.reg_per_page} per page. Zero bytes cost nothing. *)

val unpin : int -> unit
(** Charges the deregistration cost for a buffer of [n] bytes:
    {!Netparams.dereg_base} plus {!Netparams.dereg_per_page} per page.
    Zero bytes cost nothing. *)
