(** Per-channel configuration and the library's software cost constants. *)

type rx_interaction =
  | Rx_poll  (** spin until data shows up (the paper's measured mode) *)
  | Rx_interrupt  (** block on NIC interrupts *)
  | Rx_adaptive of Marcel.Time.span
      (** poll for a bounded window, then arm the interrupt — the
          adaptive polling/interruption mechanism the paper's conclusion
          announces as future work with the Marcel thread library,
          implemented here as an extension. *)

type t = {
  checked : bool;
      (** Validate pack/unpack symmetry (sizes and mode combinations) and
          raise {!Symmetry_violation} on mismatch, instead of the paper's
          "unspecified behavior". The check is performed in-model and
          costs no simulated time. Default [true]. *)
  aggregation : bool;
      (** Let dynamic-buffer BMMs group successive CHEAPER buffers until a
          commit point (paper §3.4). [false] forces eager per-buffer
          sends — the ablation knob. Default [true]. *)
  sisci_ring_slots : int;
      (** Slots in the regular SISCI transmission module's ring. 2 is the
          paper's dual-buffering; 1 disables the overlap — the ablation
          knob for §5.2.1. *)
  sisci_use_dma : bool;
      (** Route large SISCI blocks through the DMA transmission module.
          Implemented but off by default, exactly as in the paper (the
          D310 DMA tops out at 35 MB/s). *)
  sisci_slot_payload : int;
      (** Payload capacity of one regular-ring slot (the paper's 8 kB
          dual-buffering granularity). Clusterfile key [slot_payload=]. *)
  sisci_dma_threshold : int;
      (** Minimum block size routed to the DMA TM when it is enabled.
          Clusterfile key [dma_threshold=]. *)
  rendezvous_threshold : int option;
      (** When set, blocks of at least this many bytes on fabrics with a
          zero-copy TM (sisci, via) take the RDMA rendezvous path
          instead of the staged ring — except on gateway transit hops,
          which stage by construction. [None] (the default) disables
          the rendezvous entirely: the Switch never selects it and the
          wire behavior is bit-identical to earlier versions.
          Clusterfile key [rendezvous=] (bytes, or [auto] to use the
          measured crossover from [madbench crossover]). *)
  regcache_entries : int;
      (** Capacity (registrations) of the sender-side pin-down cache
          used by the rendezvous path; 0 registers per send. Clusterfile
          key [regcache=]. *)
  regcache_bytes : int option;
      (** Optional cap on total bytes pinned by the cache. Clusterfile
          key [regcache_bytes=]. *)
  rx_interaction : rx_interaction;
      (** How SISCI receive paths wait for incoming data. Default
          {!Rx_poll}. *)
  tcp_connect_timeout : Marcel.Time.span option;
      (** When set, TCP channel session setup uses live connect/accept
          handshakes with this timeout instead of pre-established
          socketpairs, so a crashed peer surfaces as
          {!Tcpnet.Timeout} during [instantiate] rather than a hang.
          Default [None] (pre-established, no timeout). *)
}

exception Symmetry_violation of string

exception Peer_unreachable of string
(** A reliable transport gave up delivering to a peer (crash or
    persistent loss). Raised from [pack]/[end_packing]-driven sends on
    channels whose interface has failure detection enabled. *)

exception Partitioned of string
(** No route (or no surviving route) connects two ranks of a virtual
    channel: {!Vchannel.Partitioned}, defined here so that the
    vchannel's reliability plane raises the same exception. *)

val default : t

(** {1 Software cost constants}

    Per-operation CPU costs of the Madeleine layer itself, calibrated so
    that Madeleine/SISCI lands at the paper's 3.9 us minimal latency and
    Madeleine/BIP at 7 us (vs 5 us raw). *)

val pack_overhead : Marcel.Time.span
val unpack_overhead : Marcel.Time.span
val begin_overhead : Marcel.Time.span
val end_overhead : Marcel.Time.span

(** {1 SISCI transmission-module geometry} *)

val sisci_short_max : int
(** Largest payload taking the optimized short-message TM. *)

val sisci_short_slots : int

val default_sisci_slot_payload : int
(** Default for {!type-t.sisci_slot_payload} (the paper's 8 kB). *)

val default_sisci_dma_threshold : int
(** Default for {!type-t.sisci_dma_threshold}. *)

val default_adaptive_window : Marcel.Time.span
(** Polling window suggested for {!Rx_adaptive}: a bit above the
    network's round-trip scale, so hot exchanges never take interrupts. *)

val slot_header : int
(** Bytes of slot header ([len] word + valid flag) in both SISCI rings. *)

(** {1 Other TM geometry} *)

val bip_short_payload : int
(** Aggregation capacity of the BIP short-message TM: one BIP short
    message minus nothing — the whole buffer is payload, BIP itself
    frames it. *)

val via_slot_payload : int
val sbp_slot_payload : int
val via_posted_descriptors : int

(** {1 Virtual channels (paper §6)} *)

val default_vchannel_mtu : int
(** Default packet size of the Generic TM. The paper picks the size at
    which both networks perform equally (16 kB for SCI/Myrinet, §6.2.1);
    Figs. 10/11 sweep it from 8 kB to 128 kB. *)

val gateway_packet_overhead : Marcel.Time.span
(** Per-packet software overhead on a gateway (thread hand-off, buffer
    management): the ~50 us/step the paper measures but cannot further
    break down (§6.2.2). *)

val default_route_patience : Marcel.Time.span
(** How long a reliable virtual channel waits for a route (or a
    crash-epoch session handshake) to come back before declaring a flow
    partitioned. Long enough to ride out a restart window; short enough
    that a permanent partition still surfaces as an error. *)

val packet_header_size : int
(** Generic TM per-packet self-description: final destination, origin,
    payload length, first/last flags. *)

val buffer_header_size : int
(** Generic TM per-buffer self-description: length and the emission /
    reception constraints (paper §6.1). *)

(** {1 Flow control and overload (backpressure plane)} *)

val default_gateway_pool : int
(** Forwarding buffers per gateway pump when [gw_pool=] is not given: the
    paper's dual-buffer pipeline (§6.2.2). A full pool blocks the ingress
    dispatcher — backpressure propagates hop-by-hop instead of queueing. *)

val default_unacked_window : int
(** Cap on a reliable flow's origin re-emission log (packets) when
    credits are unconfigured. With [credits=n] the cap is [n] — the log
    can never outgrow the credit window anyway. *)

val credit_probe_interval : Marcel.Time.span
(** How long a credit-blocked sender waits before shipping its first
    zero-window probe, so a lost grant cannot wedge a flow forever. The
    wait doubles after each probe and returns to this value when a
    grant raises the sender's credit. *)

val credit_probe_max_interval : Marcel.Time.span
(** Ceiling of the doubled probe interval: how late a sender that a
    slow receiver has backed off may notice credit it was not granted.
    A crash on the flow's grant route puts the interval back to
    {!credit_probe_interval}. 64 ms is the smallest doubling of 1 ms
    past which the chaos [overload] rows send no fewer probes. *)

val overload_hold : Marcel.Time.span
(** Hysteresis delay before a gateway that dropped back to its low
    watermark clears its [Overloaded] status — several packet-forwarding
    overheads, so a pool oscillating at full load does not flap. *)

val default_aggr_flush : Marcel.Time.span
(** Aggregation deadline when [aggr_flush_us=] is not given: the longest
    a small frame buffered by a [sched=aggreg] vchannel waits for
    merge partners before its pair is flushed — the latency the
    aggregating scheduler is allowed to trade for goodput. *)
