(** Simulated VIA: the Virtual Interface Architecture.

    Models the descriptor-queue user-level NIC interface of the VIA
    specification (Dunning et al., IEEE Micro 1998): a {e Virtual
    Interface} (VI) is a pair of work queues connected point-to-point to a
    peer VI. Receives are {e pre-posted}: the application hands registered
    buffers to the receive queue, and an incoming send consumes the
    oldest posted descriptor. Because posted buffers are fixed,
    protocol-owned memory, Madeleine drives VIA through its
    static-buffer machinery ([obtain_static_buffer]).

    The real VIA errors a send arriving with no posted descriptor; the
    simulation blocks the sender instead (flow control is the caller's
    job, and Madeleine's BMM guarantees descriptors by construction —
    a blocked sender in tests marks a protocol bug as a {!Marcel.Engine.Stalled}
    failure rather than dropped data). *)

type net
type t
type vi

val make_net : Marcel.Engine.t -> Simnet.Fabric.t -> net
val attach : net -> Simnet.Node.t -> t
val node : t -> Simnet.Node.t

val create_vi : t -> vi
val vi_connect : vi -> vi -> unit
(** Connects two VIs point-to-point. Each VI connects exactly once. *)

val max_transfer : int
(** Largest payload one descriptor may carry
    ({!Simnet.Netparams.via_descriptor_max}). *)

val post_recv : vi -> Bytes.t -> unit
(** Appends a registered buffer to the receive queue. *)

val send : vi -> Bytes.t -> len:int -> unit
(** Sends [len] bytes from the buffer through the VI. Blocks until the
    payload has been placed in the peer's oldest posted receive buffer.
    Raises [Invalid_argument] if [len] exceeds {!max_transfer} or the
    consumed receive buffer is smaller than [len]. *)

val recv_wait : vi -> Bytes.t * int
(** Dequeues the next completed receive: the posted buffer and the number
    of bytes written into it. Blocks until a completion is available. *)

val posted_count : vi -> int
(** Receive descriptors currently posted and unconsumed. *)

val completions_available : vi -> int
(** Completed receives waiting in {!recv_wait}'s queue. *)

val set_data_hook : vi -> (unit -> unit) -> unit
(** [hook] fires when a receive completion is enqueued on this VI. *)

type region
(** A registered (pinned) interval of a user buffer; see {!register}. *)

val register : t -> Bytes.t -> pos:int -> len:int -> region
(** Pins [len] bytes of [data] starting at [pos]. Charges the calling
    thread {!Simnet.Cost.pin} (fixed base plus a per-page walk). Raises
    [Invalid_argument] on an empty or out-of-bounds range. *)

val deregister : region -> unit
(** Unpins the region, charging {!Simnet.Cost.unpin}; raises
    [Invalid_argument] if already deregistered. *)

val expose : t -> region -> int
(** Publishes a registered region as an RDMA-write target and returns
    its cookie (carried to the sender in the rendezvous clear-to-send).
    Free beyond the pin already charged by {!register}. *)

val retract : t -> cookie:int -> unit
(** Withdraws an exposed target. Free. *)

val rdma_write : vi -> region -> pos:int -> len:int -> cookie:int -> unit
(** One-sided RDMA write over a connected VI: moves [len] bytes from the
    local pinned [region] (at absolute buffer offset [pos]) directly
    into the peer's exposed target region named by [cookie]. Not bound
    by {!max_transfer}, consumes no posted descriptor, produces no
    completion — the receiver learns of the data out of band. Blocks
    for the doorbell plus the host-to-host DMA transfer. Raises
    [Invalid_argument] on an unknown cookie, inactive source or target,
    or a target smaller than [len]. *)
