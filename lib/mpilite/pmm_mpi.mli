(** Madeleine II on top of MPI (paper §5.3: "Madeleine II has also been
    ported — quite straightforwardly — on top of MPI").

    The host MPI must run on a non-Madeleine device (e.g. one of the
    direct-SISCI baselines) — layering it back onto ch_mad would be
    circular. Each Madeleine buffer travels as one tagged MPI message;
    the channel id is the tag, so channels stay isolated and
    per-connection FIFO order follows from MPI's non-overtaking rule.
    The MPI instance becomes dedicated to Madeleine: user-context tags
    equal to channel ids are reserved. *)

val driver : (int -> Mpi.ctx) -> Madeleine.Driver.t
