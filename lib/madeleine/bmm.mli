(** Buffer Management Modules: generic, protocol-independent buffer
    policies (paper §3.4).

    Each BMM implements one management policy and is paired with the
    Transmission Modules whose buffer shape it fits: dynamic-buffer BMMs
    reference user memory directly; the static-copy BMM stages data
    through protocol-owned slots obtained from the TM. BMMs also carry
    the aggregation schemes — grouping successive buffers until a commit
    point to exploit scatter/gather, or sending eagerly.

    Ordering rules implemented here (paper §4):
    - a [Send_later] buffer must not be read before commit, so once one
      is queued, every subsequent buffer queues behind it;
    - a [Receive_express] extraction completes before [extract] returns,
      first draining any deferred extractions to preserve stream order;
    - commit ([commit]/[checkout]) flushes everything. *)

type send = {
  bs_name : string;
  append : Buf.t -> Iface.send_mode -> Iface.recv_mode -> unit;
  commit : unit -> unit;
}

type recv = {
  br_name : string;
  extract : Buf.t -> Iface.send_mode -> Iface.recv_mode -> unit;
  checkout : unit -> unit;
}

val static_copy_send : Tm.static_send -> send
(** Stages buffers into TM slots, splitting oversized buffers across
    slots; the TM's [write_static] models the copy cost. *)

val send_of_tm : aggregation:bool -> Tm.send -> send
(** Picks the BMM matching the TM's buffer shape ([aggregation] selects
    between the two dynamic policies). *)

val recv_of_tm : Tm.recv -> recv
