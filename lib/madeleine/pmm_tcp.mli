(** Protocol Management Module for TCP (paper §7 lists TCP among the
    supported interfaces).

    One dynamic-buffer transmission module per link with scatter-gather
    grouping (writev/readv), so the aggregating BMM amortizes the Linux
    2.2 kernel's per-call cost across grouped buffers. One
    pre-established stream per node pair per channel carries both
    directions. *)

val driver : (int -> Tcpnet.t) -> Driver.t
