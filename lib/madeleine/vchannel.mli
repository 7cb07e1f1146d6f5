(** Virtual channels: transparent inter-device data forwarding (paper §6).

    A virtual channel spans a sequence of real channels — typically one
    per cluster network, joined by gateway nodes that sit on two networks
    at once. The application uses the same packing interface as on a real
    channel; underneath, the {!Generic_tm} fragments every message into
    MTU-sized self-described packets, and gateway nodes run a dual-buffer
    forwarding pipeline (paper Fig. 9): one thread receives packet [k+1]
    from the incoming network while the other sends packet [k] on the
    outgoing one, with exactly two pipeline buffers providing the
    overlap.

    Packets between any two nodes follow the route {!Routing} computes
    over the channel membership graph (breadth-first, so the fewest
    gateway crossings). The real channels handed to a virtual channel become
    dedicated to it: all their incoming traffic is consumed by the
    forwarding dispatchers.

    Cost model notes: the Generic TM copies user data into packet buffers
    on emission (the "some optimizations are lost" of §6.1); on the final
    node, packet payloads are extracted by the dispatcher as they arrive
    (a progress engine), so the user-facing [unpack] pays no further
    modelled copy. [Send_later] buffers are read eagerly at [pack] — the
    generic TM cannot defer across gateways.

    The rank set is fixed at [create], as in the paper (§6: the real
    channels are set at channel-configuration time). Live membership —
    epochs, joins, drains and quorum-elected coordinators — is the
    {!Membership} layer, which sits on top of a vchannel the way
    {!Collectives} does and replaces the core's fixed {!view}.

    The core forwards any packet: it owns the routing hooks, the
    dispatchers and forwarding pumps, the gateway overload watermarks,
    packing and unpacking. Two optional planes sit beside it, each
    chosen once by [create] and reached only through its record of
    hooks. {!Reliability}, built when [faults] is given, owns the
    sequence numbers, the unacknowledged log, acks, re-emission, the
    crash-epoch handshake, the sentinels and the suspicion matrix.
    {!Credits}, built when [credits] is given, owns grants, zero-window
    probes, their backoff and its crash reset. Without them the core
    runs plain hooks that branch on nothing and holds no state of
    either plane. *)

type t

exception Partitioned of string
(** No route (or no surviving route) connects two ranks of the virtual
    channel. On reliable vchannels this is the terminal delivery error:
    it is raised by [begin_packing]/[pack]/[end_packing] once every
    gateway path to the destination is gone, and by the route queries
    below when two ranks are disconnected. *)

val create :
  Session.t ->
  ?mtu:int ->
  ?patience:Marcel.Time.span ->
  ?gateway_overhead:Marcel.Time.span ->
  ?extra_gateway_copy:bool ->
  ?ingress_cap_mb_s:float ->
  ?credits:int ->
  ?gw_pool:int ->
  ?faults:Simnet.Faults.t ->
  ?sched:Sched.strategy ->
  Channel.t list ->
  t
(** [mtu] defaults to {!Config.default_vchannel_mtu}; it is the payload
    size of one forwarded packet, fixed for the whole virtual channel as
    in the paper (set at channel-configuration time). [gateway_overhead]
    defaults to {!Config.gateway_packet_overhead}. [extra_gateway_copy]
    (default [false]) disables the static-buffer borrowing optimization
    of §6.1, charging one additional memcpy per forwarded packet — the
    ablation knob.

    [credits] switches on end-to-end credit-based flow control (the
    {!Credits} plane): each
    (src, dst) flow may have at most [credits] unconsumed data packets
    in flight or buffered at the destination, so every buffering point
    holds at most [credits * mtu] bytes of the flow. Credits are
    receiver-granted and consumption-driven — a paused receiver blocks
    the sender (on a condition variable inside [pack]/[end_packing])
    instead of letting data pile up; grants are cumulative [crd]
    packets riding the normal routed path (piggybacking the flow's ack
    on reliable vchannels), and a blocked sender ships zero-window
    probes — the first after {!Config.credit_probe_interval}, then at a
    doubling interval up to {!Config.credit_probe_max_interval}, reset
    by a grant that raises its credit or by a crash on its grants'
    route — so a grant lost to a crash cannot wedge the flow. Unset (the default), no credit packet
    is ever emitted and the wire format is byte-identical to the
    credit-less library. Works with or without [faults].

    [gw_pool] sizes each gateway forwarding pump's buffer pool (default
    {!Config.default_gateway_pool} = the paper's dual buffer). A full
    pool blocks the ingress dispatcher — backpressure propagates
    hop-by-hop toward the origin instead of queueing on the gateway.
    Giving [credits] or [gw_pool] explicitly also arms per-gateway
    watermarks: a gateway whose busy buffers reach the pool size is
    reported [Overloaded] (through {!peer_status}, and through each
    rank's {!Sentinel} on reliable vchannels, where routes are also
    recomputed to prefer non-overloaded gateways); the report clears,
    after a {!Config.overload_hold} hysteresis, once the pool drains to
    half.

    [ingress_cap_mb_s] implements the bandwidth-control mechanism the
    paper's conclusion calls for ("some sophisticated bandwidth control
    mechanism is needed to regulate the incoming communication flow on
    gateways"): each gateway paces its consumption of forwarded packets
    so the incoming stream cannot hog the shared PCI bus and starve the
    outgoing one. Unset = unregulated, the paper's measured behaviour.

    [faults] makes the virtual channel {e reliable} against the given
    fault plane (the {!Reliability} plane): packets carry per-flow sequence numbers and are logged
    at the origin until cumulatively acknowledged end to end; when a
    gateway crashes, routes are recomputed over the surviving membership
    graph and unacknowledged packets re-emitted from their origins
    (duplicates are discarded by the sequence check at the destination);
    when no route remains, sends raise {!Partitioned}. A reliable
    vchannel additionally runs one phi-accrual {!Sentinel} per rank, so
    suspected (not yet crashed) peers are routed around before a send
    times out on them, and performs crash-epoch session handshakes:
    after a node restarts with a new fault-plane epoch, peers holding a
    delivery journal for it send back their expected sequence numbers,
    the restarted node resumes numbering there, and end-to-end delivery
    stays exactly-once across the restart. Crash, restart, quiescence and
    re-emission visit the per-pair state in ascending rank order, so
    re-emitted packets and handshakes leave in ascending pair order;
    that order is part of the simulated schedule. [patience] (default
    {!Config.default_route_patience}) bounds how long a send waits for
    a route or a handshake to come back before raising {!Partitioned}.
    Without [faults] (the default) none of this machinery exists and
    the wire format and schedules are byte-identical to the
    pre-reliability library.

    [sched] selects the packet scheduler sitting between the pack path
    and the transfer modules (see {!Sched}). Unset or {!Sched.Fifo},
    packets ship exactly as the unscheduled library ships them —
    byte-identical wire format and schedule. {!Sched.aggreg} merges
    small pending packets from concurrent logical flows into aggregate
    wire packets (up to [aggr_max] payload bytes, flushed at the latest
    after [aggr_flush]), lets rendezvous-class messages (first fragment
    fills the MTU) overtake other flows' buffered small trains, and
    unlocks logical-flow multiplexing: [begin_packing ~flow] /
    [begin_unpacking_from ~flow] carry thousands of independent
    channels over the same physical connections, distinguished by a
    per-frame flow id in the aggregate payload. Composition: an
    aggregate takes one sequence number and one re-emission
    log slot (reliable vchannels re-emit it as a unit), credits are
    charged per constituent frame, and gateways forward aggregates
    without unpacking them.

    Raises [Invalid_argument] on an empty channel list, an MTU too
    small to carry a buffer sub-header, a non-positive ingress cap,
    [credits] or [gw_pool] below 1, or an aggregation budget or flush
    deadline out of range. *)

val ranks : t -> int list
(** All nodes reachable through the virtual channel. *)

val route_length : t -> src:int -> dst:int -> int
(** Number of real-channel hops between two nodes (1 = same cluster,
    0 for [src = dst]). Raises [Invalid_argument] naming the offending
    rank when either rank is not part of the virtual channel, and
    {!Partitioned} when both ranks are members but no route connects
    them. *)

val route_via : t -> src:int -> dst:int -> int list
(** The successive hop destinations of the current route (the last
    element is [dst]). Same errors as {!route_length}. *)

val peer_status : t -> src:int -> dst:int -> Iface.health
(** Health of the [src -> dst] flow: [Departed] when either rank is
    absent from the current topology epoch (see {!Membership}; a typed
    verdict, not a lookup failure — failover treats it like [Down] but
    never reroutes to it), [Down] when the destination is
    crashed or unroutable, [Overloaded] when the destination or a relay
    on the current route is shedding load above its watermark,
    [Degraded n] when failover lengthened the route by [n] hops over
    the original, [Up] otherwise. *)

(** {1 Collective control plane}

    Hooks for the {!Collectives} layer. [col] packets ride the ordinary
    forwarding path (gateways forward them like data) but bypass
    sequencing, credits and scheduling exactly like [top] packets: the
    vchannel delivers their payloads to the installed handler and ships
    the ones the layer emits, with no policy of its own. Without a
    handler installed, the wire format and schedule of every existing
    workload are unchanged. *)

val send_col : t -> src:int -> dst:int -> Bytes.t -> unit
(** Ship a collective-control payload from [src] to [dst] over the
    current routes, asynchronously and unreliably (a partition or crash
    en route silently drops it — the Collectives repair generation
    covers the loss). Raises [Invalid_argument] when either rank is not
    part of the vchannel. *)

val set_on_col : t -> (me:int -> origin:int -> Bytes.t -> unit) -> unit
(** Install the collective-control handler, called from the dispatcher
    of the destination rank [me] for every [col] payload that reaches
    it while [me] is up. One handler per vchannel (last install wins). *)

val set_on_health_change : t -> (unit -> unit) -> unit
(** Install a hook called after every liveness transition the vchannel
    acts on: a crash or restart, a sentinel suspicion raised or cleared,
    an Overloaded watermark edge, and a topology epoch swap. The
    Collectives layer uses it to bump its repair generation. One hook
    per vchannel (last install wins). *)

val neighbours : t -> int -> int list
(** Ranks sharing at least one physical channel with the given rank, in
    channel-declaration order — the adjacency the Collectives layer
    builds its spanning trees over. *)

val rank_alive : t -> int -> bool
(** Whether a rank can take part in a collective right now: part of the
    vchannel, a member of the current topology epoch (not mid-drain),
    up, and not suspected — the predicate routing itself uses. Under
    relative suspicion, "not suspected" is the view's [trusted]. *)

val has_quorum : t -> viewer:int -> bool
(** Whether [viewer]'s side of whatever cuts exist currently holds a
    membership quorum — the view's answer; always [true] under the fixed
    view. The Collectives layer uses this to fail minority-side
    collectives fast instead of retrying into a partition. *)

val rank_overloaded : t -> int -> bool
(** Whether the rank is currently reporting Overloaded (see
    {!overloaded}). *)

(** {1 Membership hooks}

    What the {!Membership} layer needs from the core. Its [top] packets
    ride the forwarding path like [col] ones and go to the view's
    [on_top] at their destination. *)

type view = {
  member : int -> bool;  (** in the current epoch *)
  draining : int -> bool;  (** routable, but opens no new flows *)
  relative : bool;
      (** suspicion is observer-relative: a hop exists only when its
          sender trusts its receiver, so each side of a partition keeps
          routing among itself; otherwise one observer's suspicion
          stands for everybody *)
  trusted : int -> bool;  (** {!rank_alive}'s test under [relative] *)
  has_quorum : int -> bool;  (** {!has_quorum}'s answer *)
  on_top : me:int -> Bytes.t -> unit;
  on_crash : int -> unit;  (** after the core rerouted around a crash *)
  on_verdict : me:int -> int -> Sentinel.state -> unit;
      (** after the core acted on [me]'s new [Down] or, under
          [relative], [Up] verdict on a live peer *)
}
(** The membership view the core consults. {!create} installs the fixed
    view: every rank a member, none draining, suspicion global, quorum
    always held, every hook a no-op. *)

val view : t -> view

val set_view : t -> view -> unit
(** Install a view before the engine runs, admitting every rank (the
    routes computed at {!create} stay in force). *)

val faults : t -> Simnet.Faults.t option
val patience : t -> Marcel.Time.span

val reachable : t -> src:int -> dst:int -> bool
(** Whether a route leads from [src] to [dst] now; [false] for
    [src = dst] and ranks outside the vchannel. *)

val swap_epoch : t -> Topology.change -> unit
(** After the view published an epoch swap: sentinels learn the joined
    ranks and forget the departed ones (who also lose any Overloaded
    report), routes are recomputed — re-emitting only the flows whose
    route changed — and the health hook fires. *)

val quiescent : t -> int -> bool
(** Whether the rank holds nothing in flight that the vchannel counts:
    acks cover every re-emission-log entry it originated or is owed,
    and its forwarding-pool slots are free. Slots are counted only on a
    vchannel created with [~credits] or [~gw_pool]; on any other the
    second half always holds, so a relay with packets still in its
    forwarding pumps reads quiescent. *)

val send_top : t -> src:int -> dst:int -> Bytes.t -> unit
(** Asynchronous and unreliable, like {!send_col}. *)

val ship_top : ?physical:bool -> t -> src:int -> dst:int -> Bytes.t -> unit
(** From the caller's thread, raising {!Partitioned} (or
    {!Config.Peer_unreachable}) when the payload cannot leave.
    [physical] takes the first hop over any live link, ignoring
    membership and suspicion: how a rank outside the current epoch
    reaches the members. *)

val engine : t -> Marcel.Engine.t
(** The engine the vchannel runs on. *)

val forwarded : t -> (int * int * int) list
(** Per-gateway forwarding counters: [(node, packets, payload bytes)]
    for every node that has relayed traffic, sorted by node. *)

type rel_stats = {
  reroutes : int;
  reemitted : int;
  dup_drops : int;
  handshakes : int;
}

val rel_stats : t -> rel_stats option
(** Reliability counters — [None] on a vchannel created without
    [?faults]: route recomputations triggered by membership changes or
    sentinel suspicion, packets re-emitted from origin logs,
    duplicate/overtaking packets discarded by destination sequence
    checks, and crash-epoch session handshakes completed. *)

type flow_stat = {
  flow_src : int;
  flow_dst : int;
  sent : int;  (** packets numbered so far (current epoch) *)
  unacked : int;  (** packets still in the origin's re-emission log *)
  delivered : int;  (** packets accepted in order at the destination *)
}

val flow_stats : t -> flow_stat list
(** Per-flow reliability counters, sorted by (src, dst); empty without
    [?faults]. *)

type credit_stats = {
  credit_budget : int;  (** packets in flight allowed per flow *)
  grants : int;  (** cumulative grant packets sent by receivers *)
  probes : int;  (** zero-window probes sent by blocked senders *)
  stalls : int;  (** times a sender ran out of credits and blocked *)
}

val credit_stats : t -> credit_stats option
(** Credit-plane counters — [None] without [?credits]. *)

val sched_stats : t -> Sched.stats option
(** Scheduler counters (frames submitted, frames merged, aggregates
    emitted, mean frames per aggregate, flush reasons) — [None] unless
    the vchannel was created with an aggregating [?sched]. *)

val overloaded : t -> int list
(** Gateways currently above their high watermark, sorted. Always empty
    unless [?credits] or [?gw_pool] armed the watermark machinery. *)

val overload_events : t -> int
(** Rising-edge Overloaded transitions observed so far. *)

type queue_stat = {
  q_point : string;
      (** ["assembler_bytes"], ["gateway_pool_slots"] or
          ["unacked_packets"] *)
  q_node : int;
  q_peer : int;  (** flow peer; [-1] for per-node points *)
  q_peak : int;  (** highest occupancy observed (bytes, slots, packets) *)
  q_bound : int option;  (** configured bound, when one is in force *)
}

val queue_stats : t -> queue_stat list
(** Observed peak occupancy of every instrumented buffering point —
    destination assemblers (bytes; bounded by [credits * mtu]), gateway
    forwarding pools (busy buffers; bounded by [gw_pool] per outgoing
    link) and origin re-emission logs (packets; bounded by [credits],
    or {!Config.default_unacked_window} without credits), sorted by
    point, node and peer. The chaos harness asserts [q_peak <= q_bound]
    under overload. *)

val sentinel : t -> rank:int -> Sentinel.t option
(** The rank's failure detector — [None] without [?faults] or when the
    rank has no channel neighbours. *)

val suspicion_timeline : t -> (int * Sentinel.event) list
(** Every sentinel state transition observed so far, as
    [(observer rank, event)] sorted by time, then by observer rank. *)

(** {1 The packing interface, lifted to virtual channels} *)

type out_connection
type in_connection

val begin_packing : ?flow:int -> t -> me:int -> remote:int -> out_connection
(** [flow] (default [0]) names the logical channel the message travels
    on. Non-zero flows exist only on vchannels with an aggregating
    scheduler — the flow id rides the aggregate's frame headers, and
    there is nowhere to put it on the plain wire format — and raise
    [Invalid_argument] otherwise, as does a flow id outside 0..65535.
    Messages are ordered per (source, destination, flow); distinct
    flows of a pair may interleave on the wire. *)

val pack :
  out_connection ->
  ?s_mode:Iface.send_mode ->
  ?r_mode:Iface.recv_mode ->
  ?off:int ->
  ?len:int ->
  Bytes.t ->
  unit

val end_packing : out_connection -> unit

val flush : t -> me:int -> unit
(** Barrier flush: ship every aggregate still buffered in [me]'s
    scheduler now instead of waiting for a budget or deadline — the
    hook for synchronization points. No-op without an aggregating
    scheduler (there is never anything buffered). *)

val begin_unpacking : t -> me:int -> in_connection
(** Any-source (and any-flow) receive. Within one process, do not mix
    any-source and {!begin_unpacking_from} receives on the same virtual
    channel. Raises [Invalid_argument] when [me] is not part of the
    virtual channel. *)

val begin_unpacking_from :
  ?flow:int -> t -> me:int -> remote:int -> in_connection
(** Matched receive: blocks for the next message from [remote] on
    logical flow [flow] (default [0]). Raises [Invalid_argument] when
    either rank is not part of the virtual channel. *)

val remote_rank : in_connection -> int

val remote_flow : in_connection -> int
(** Logical flow the received message arrived on (0 for unflowed
    traffic). *)

val unpack :
  in_connection ->
  ?s_mode:Iface.send_mode ->
  ?r_mode:Iface.recv_mode ->
  ?off:int ->
  ?len:int ->
  Bytes.t ->
  unit
(** The Generic TM's self-description makes asymmetric unpack sequences
    detectable even on unchecked channels: mismatched size or modes raise
    {!Config.Symmetry_violation}. *)

val end_unpacking : in_connection -> unit
(** Raises {!Config.Symmetry_violation} if the message has leftover
    unconsumed data. *)
