(** The paper's figure sweeps (§5–§6) as parallel-ready job sets.

    Every measured point of a figure is one {e job}: a [(label, thunk)]
    pair whose thunk builds a fresh, fully isolated world, measures one
    point and returns a structured row — no printing. {!run} fans a
    figure's job set out over a {!Parsim} pool (a [jobs:1] pool runs it
    serially, in place) and renders the collected rows to the
    section's full text {e after} collection, so the output is
    byte-identical whatever the pool's worker count. *)

val section : string -> string -> string
(** [section title body]: [body] under [title] between two rules, the
    heading every figure section prints. *)

type figure
(** One figure: its measured points, each a labelled job, and the
    renderer of their rows. *)

val figure : (string * (unit -> 'a)) list -> ('a list -> string) -> figure
(** [figure points render]: the labelled jobs [points] and the renderer
    of their rows, in point order. A figure with no points renders
    [render []] and builds no world. *)

val run : Parsim.pool -> figure -> string
(** Measures every point on the pool and renders the complete section
    (header included). *)

val fingerprints : Parsim.pool -> figure -> string
(** Measures every point on the pool and lists, per point label, the
    schedule and delivery fingerprints of every world it built
    ({!Worlds.lines}) instead of the section. *)

val fig4 : figure
(** Madeleine II over SISCI/SCI: latency and bandwidth sweep. *)

val fig5 : figure
(** Madeleine II over BIP/Myrinet vs raw BIP. *)

val fig6 : figure
(** The three MPI implementations over SCI, latency then bandwidth. *)

val fig7 : figure
(** Nexus/Madeleine II over SISCI and TCP. *)

val eq16k : figure
(** §6.2.1: the 16 kB equal-cost point of the two networks. *)

val fig10 : figure
(** Forwarding bandwidth SCI -> Myrinet across gateway MTUs. *)

val fig11 : figure
(** Forwarding bandwidth Myrinet -> SCI across gateway MTUs. *)
