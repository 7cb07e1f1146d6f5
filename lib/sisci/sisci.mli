(** Simulated SISCI: the Dolphin software interface to SCI.

    SCI exposes remote memory: a node creates a {e local segment}, a peer
    connects to it and maps it, and thereafter plain CPU stores into the
    mapped window ({!pio_write}) appear in the remote segment — each store
    crossing the local PCI bus, the SCI ring and the remote PCI bus. There
    is no receive operation: the receiver {e polls} memory it owns
    ({!wait_until}).

    Two transfer engines are modelled, as on the Dolphin D310 boards used
    by the paper:
    - {b PIO}: CPU-mastered stores, low latency, bandwidth limited by the
      write-combining PCI bridge path (~88 MB/s);
    - {b DMA}: NIC-mastered, but notoriously poor on the D310 — capped at
      35 MB/s (§5.2.1), which is why Madeleine ships its DMA transmission
      module disabled.

    Writes from one node to one segment become visible in issue order
    (SCI's in-order delivery per stream). *)

type net
type t
type local_segment
type remote_segment

val make_net : Marcel.Engine.t -> Simnet.Fabric.t -> net
val attach : net -> Simnet.Node.t -> t
val node : t -> Simnet.Node.t

val create_segment : t -> segment_id:int -> size:int -> local_segment
(** Exposes [size] bytes (zero-initialised) under [(node, segment_id)].
    Raises [Invalid_argument] if the id is already used on this node. *)

val connect : t -> node_id:int -> segment_id:int -> remote_segment
(** Maps a peer's segment. Raises [Not_found] if it does not exist. *)

val pio_write : remote_segment -> off:int -> Bytes.t -> unit
(** CPU store sequence into the mapped window. Blocks the calling thread
    while the stores drain through the local PCI bridge (posted,
    write-combined); the SCI stream then delivers to remote memory
    asynchronously and in order. Writes from one node to one segment
    become remotely visible in issue order. *)

val pio_write_sub :
  remote_segment -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** {!pio_write} from a sub-range of [data]. The internal snapshot taken
    for the asynchronous delivery is the only host copy, so callers can
    ship straight out of a reusable staging buffer with no intermediate
    frame allocation. Same simulated cost as {!pio_write} of [len]
    bytes. *)

val dma_write : remote_segment -> off:int -> Bytes.t -> unit
(** Posts a DMA descriptor; blocks while the engine pulls the data
    through the local PCI bus (35 MB/s ceiling on the D310), delivery
    completing asynchronously like {!pio_write}. *)

val dma_write_sub :
  remote_segment -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** {!dma_write} from a sub-range of [data]; see {!pio_write_sub}. *)

type region
(** A registered (pinned) interval of a user buffer; see {!register}. *)

val register : t -> Bytes.t -> pos:int -> len:int -> region
(** Pins [len] bytes of [data] starting at [pos] so the adapter's
    busmaster engine can address them directly. Charges the calling
    thread the registration cost ({!Simnet.Cost.pin}: a fixed base plus
    a per-page walk). Raises [Invalid_argument] on an empty or
    out-of-bounds range. *)

val deregister : region -> unit
(** Unpins the region, charging {!Simnet.Cost.unpin}. The region becomes
    unusable; raises [Invalid_argument] if already deregistered. *)

val expose_region : t -> segment_id:int -> region -> local_segment
(** Exposes a registered region as a connectable segment whose memory
    {e is} the underlying user buffer — remote writes land directly in
    user memory (offsets are absolute buffer offsets). Free beyond the
    pin already charged by {!register}. Raises [Invalid_argument] if the
    region is inactive, belongs to another adapter, or the id is in
    use. *)

val retract_segment : local_segment -> unit
(** Removes a segment from its adapter's table so the id can be reused.
    Free; pending deliveries already in flight still land in the
    underlying memory. *)

val rdma_write_direct :
  remote_segment -> off:int -> region -> pos:int -> len:int -> unit
(** Zero-copy busmaster write: one descriptor moves [len] bytes from the
    pinned [region] (at absolute buffer offset [pos]) into the remote
    segment at [off], with no staging blit on either host. The engine
    reads pinned pages in long aligned bursts, so the source PCI
    crossing runs at {!Simnet.Netparams.sisci_rdma_rate_cap_mb_s}
    rather than the D310 staging engine's 35 MB/s. Because there is no
    snapshot, the call blocks until the data has landed in the remote
    segment — only then may the caller modify or unpin the source
    range. *)

val read : local_segment -> off:int -> len:int -> Bytes.t
(** CPU read of local segment memory (free: it is plain local RAM). *)

val get : local_segment -> off:int -> char
(** One-byte CPU read of local segment memory, allocation-free — for
    flag polling, where {!read}'s per-call [Bytes.sub] would dominate
    host time. Free in simulated time, like {!read}. *)

val get_int32_le : local_segment -> off:int -> int
(** Little-endian 32-bit CPU read of local segment memory,
    allocation-free (e.g. slot length headers). *)

val read_into :
  local_segment -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** Copies [len] bytes of local segment memory starting at [off] into
    [dst] at [pos] without allocating an intermediate. Free in simulated
    time; charge any modelled memcpy cost separately. *)

val write_local : local_segment -> off:int -> Bytes.t -> unit
(** CPU store into one's own segment (e.g. resetting a flag). Free. *)

val set : local_segment -> off:int -> char -> unit
(** One-byte CPU store into one's own segment, allocation-free (e.g.
    resetting a valid flag). Free in simulated time. *)

type rx_wait =
  | Poll  (** spin on the flag: fastest detection, burns the CPU *)
  | Interrupt  (** block on the NIC interrupt: frees the CPU, slow wake *)
  | Adaptive of Marcel.Time.span
      (** poll for the given window, then fall back to the interrupt —
          the adaptive mechanism the paper plans to build with Marcel
          (§7): hot streams pay polling costs, idle waits burn a bounded
          amount of CPU. *)

val wait_until :
  ?mode:rx_wait -> local_segment -> (local_segment -> bool) -> unit
(** Waits until the predicate holds; re-evaluated after every remote
    write into the segment. [mode] (default [Poll]) selects the
    detection cost on success — poll overhead, interrupt latency, or
    window-dependent — and how much CPU time the wait burns (recorded,
    see {!polled_time}). *)

val polled_time : t -> Marcel.Time.span
(** Total CPU time this adapter's threads have spent spinning in
    poll-mode waits — the quantity adaptive interrupts exist to bound. *)

val set_data_hook : local_segment -> (unit -> unit) -> unit
(** [hook] fires after every remote write into the segment (used by
    Madeleine's any-source message detection). *)
