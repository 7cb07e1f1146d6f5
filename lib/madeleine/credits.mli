(** The credit plane of a virtual channel: end-to-end, receiver-granted
    flow control.

    Each (src, dst) flow may have at most [budget] unconsumed data
    packets in the network or buffered at the destination. The receiver
    counts packets consumed by user unpacks and grants credit back in
    cumulative [crd] packets every half window; a sender out of credit
    blocks and ships zero-window probes at an interval that backs off
    from {!Config.credit_probe_interval} to
    {!Config.credit_probe_max_interval}. A crash wipes the crashed
    node's counters and re-arms the probes of backed-off flows whose
    grants it carried.

    {!Vchannel.create} builds this plane only when given [credits]. The
    core calls it through {!hooks}; the plane calls the core through
    {!core}. A vchannel without credits installs plain hooks instead
    and holds none of this state. *)

(** What the plane needs from the vchannel core and its reliability
    plane. *)
type core = {
  engine : Marcel.Engine.t;
  routing : Channel.t Routing.t;
  ship_detached :
    kind:string -> at:int -> Generic_tm.packet_header -> Bytes.t -> unit;
  rel : Reliability.hooks;
      (** the reliability plane, plain or not: a grant piggybacks its
          cumulative ack, and a blocked sender waits out its route
          holes *)
}

(** The plane's counters; {!Vchannel} re-exports them as
    {!Vchannel.credit_stats}. *)
module Stats : sig
  type credit_stats = {
    credit_budget : int;
    grants : int;
    probes : int;
    stalls : int;
  }
end

(** What the core asks of the plane. *)
type hooks = {
  charge : src:int -> dst:int -> int -> unit;
      (** take [n] credits on the flow before a packet is numbered,
          blocking (and probing) while the window is exhausted *)
  split : Sched.frame list -> Sched.frame list list;
      (** cut an aggregate train so that no wire packet charges more
          than the budget *)
  on_crd : me:int -> Generic_tm.packet_header -> Bytes.t -> unit;
      (** a grant or a probe reached [me]; a grant's piggybacked ack
          goes on to the reliability plane's [on_ack] *)
  consumed : me:int -> origin:int -> unit;
      (** a user unpack drained one packet payload from [origin] *)
  crash : int -> unit -> unit;
      (** [crash node] wipes [node]'s counters and notes the backed-off
          flows whose grants it carried, on the routes before the
          crash; the returned thunk, run once the routes are
          recomputed, resets their probe interval and wakes them *)
  stats : unit -> Stats.credit_stats option;
}

val create : n:int -> budget:int -> core -> hooks
(** The plane for the ranks [0 .. n-1], [budget] credits per flow. *)
