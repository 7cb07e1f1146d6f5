(** The paper's figure sweeps (§5–§6) as parallel-ready job sets.

    Every measured point of a figure is one {e job}: a [(label, thunk)]
    pair whose thunk builds a fresh, fully isolated world, measures one
    point and returns a structured row — no printing. Each figure
    function fans its job set out over a {!Parsim} pool (a [jobs:1] pool
    runs it serially, in place) and renders the collected rows to the
    section's full text {e after} collection, so the output is
    byte-identical whatever the pool's worker count.

    Each returns the complete rendered section (header included). *)

val fig4 : Parsim.pool -> string
(** Madeleine II over SISCI/SCI: latency and bandwidth sweep. *)

val fig5 : Parsim.pool -> string
(** Madeleine II over BIP/Myrinet vs raw BIP. *)

val fig6 : Parsim.pool -> string
(** The three MPI implementations over SCI, latency then bandwidth. *)

val fig7 : Parsim.pool -> string
(** Nexus/Madeleine II over SISCI and TCP. *)

val eq16k : Parsim.pool -> string
(** §6.2.1: the 16 kB equal-cost point of the two networks. *)

val fig10 : Parsim.pool -> string
(** Forwarding bandwidth SCI -> Myrinet across gateway MTUs. *)

val fig11 : Parsim.pool -> string
(** Forwarding bandwidth Myrinet -> SCI across gateway MTUs. *)
