(** Channels: closed worlds for communication (paper §2.1).

    A channel is associated with one network interface (through its
    {!Driver}), one adapter per node, and a set of connection objects.
    Communication over a channel does not interfere with other channels;
    in-order delivery holds for point-to-point connections within one
    channel. Several channels may share the same interface and adapter. *)

type t

type endpoint
(** One process's view of the channel ([rank] = node id). *)

val create :
  Session.t -> Driver.t -> ?config:Config.t -> ranks:int list -> unit -> t
(** Collectively opens a channel spanning [ranks] (each rank must have an
    endpoint on the driver's network). Protocol resources — tags,
    segments, streams, VIs — are set up here, as [mad_open_channel]
    does at session initialization. *)

val config : t -> Config.t
val ranks : t -> int list
val id : t -> int
val engine : t -> Marcel.Engine.t

val fabric : t -> string option
(** The simulated fabric the channel's driver sends over, when known
    (see {!Driver.instance.inst_fabric}). *)

val endpoint : t -> rank:int -> endpoint
(** Raises [Not_found] if [rank] is not part of the channel. *)

val endpoint_rank : endpoint -> int
val endpoint_channel : endpoint -> t

val peer_health : endpoint -> remote:int -> Iface.health
(** Health of the path to [remote] as seen by the channel's driver:
    [Up], [Degraded n] under retransmission pressure, or [Down] once the
    peer is unreachable. Interfaces without failure detection always
    report [Up]. *)

val reg_stats : endpoint -> Regcache.stats option
(** Counters of this endpoint's sender-side registration (pin-down)
    cache: hits, misses, evictions, merges and currently pinned bytes.
    [None] when the channel's driver has no zero-copy rendezvous path or
    the endpoint has not yet sent through it. *)

val tm_usage : t -> (int * int * int) list
(** Per-transmission-module usage on this channel: [(tm_index, packets,
    bytes)] sorted by index — which paths the Switch actually chose
    (e.g. SISCI: 0 = short ring, 1 = regular ring, 2 = DMA). *)

(**/**)

(* Internal: used by Api and Vchannel. *)

val relax_checked : t -> unit
(** Disables the pack/unpack symmetry bookkeeping on this channel.
    Reliable vchannels call this on their real channels: re-emission
    after a crash and abandonment of partial messages mean the strict
    FIFO mirror behind [Config.checked] no longer holds there — the
    Generic TM sub-headers validate symmetry end-to-end instead. *)

val sender_link : endpoint -> remote:int -> Link.sender
val receiver_link : endpoint -> from:int -> Link.receiver

val wait_any_arrival : endpoint -> int
(** Blocks until some unlocked incoming link has visible data; returns the
    peer rank. Fair rotation across peers. *)

val sym_push :
  t -> src:int -> dst:int -> int * Iface.send_mode * Iface.recv_mode -> unit

val sym_check :
  t -> src:int -> dst:int -> int * Iface.send_mode * Iface.recv_mode -> unit
(** Raises {!Config.Symmetry_violation} when the unpack does not mirror
    the corresponding pack. *)

val record_usage : t -> tm:int -> bytes_count:int -> unit
