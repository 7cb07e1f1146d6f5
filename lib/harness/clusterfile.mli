(** Declarative cluster descriptions.

    Real Madeleine II sessions were launched from configuration files
    naming the machines, networks and channels (the later PM2 stack
    called the launcher Leonie). This module provides the equivalent for
    the simulated testbed: a small line-based description builds the
    whole world — fabrics, nodes, protocol instances, channels and
    virtual channels — ready to run.

    {v
    # the paper's 6.2 testbed
    network sci   type=sisci
    network myri  type=bip

    node a   nets=sci
    node gw  nets=sci,myri
    node b   nets=myri

    channel  c-sci   net=sci   nodes=a,gw
    channel  c-myri  net=myri  nodes=gw,b
    vchannel wan     channels=c-sci,c-myri  mtu=16384
    v}

    Syntax: one declaration per line — [network NAME type=T],
    [node NAME nets=N1,N2...], [channel NAME net=N nodes=A,B,...] and
    [vchannel NAME channels=C1,C2,... \[mtu=BYTES\]
    \[gateway_overhead_us=US\] \[ingress_cap=MB_S\] \[reliable=BOOL\]
    \[patience_us=US\] \[credits=N\] \[gw_pool=N\]]. Channel options:
    [aggregation=BOOL], [checked=BOOL], [slots=INT], [dma=BOOL],
    [rx=poll|interrupt|adaptive], [connect_timeout_us=US],
    [slot_payload=BYTES] (sisci regular-ring slot payload,
    {!Madeleine.Config.t.sisci_slot_payload}), [dma_threshold=BYTES]
    (PIO-to-DMA switch point), [rendezvous=BYTES|auto|off] (zero-copy
    rendezvous threshold; [auto] reads the fabric's measured crossover
    from {!Crossover.default_file}, written by [madbench crossover],
    and fails when no measurement exists), [regcache=N] (>= 0 cached
    registrations; 0 = register per send) and [regcache_bytes=BYTES]
    (pinned-byte budget of the cache). A vchannel additionally accepts
    [version=N] (>= 1), which attaches a live-topology layer
    ({!Madeleine.Membership}, retrieved with {!membership}) whose
    epoch [N] is the clusterfile's membership, and [coordinator=NODE]
    (a declared node that arbitrates joins and drains; requires
    [version=], defaults to the lowest rank). [election=on|off]
    (default [off]) replaces the static coordinator with a
    quorum-elected one ({!Madeleine.Membership.election_stats}); it
    requires [version=] and [reliable=true], and [coordinator=] then
    merely seats the initial incumbent. [topo_quorum=N] (>= 1) pins
    the election's ballot quorum (default: a majority of the current
    membership) and requires [election=on]. With [version=] unset no
    layer is created and the vchannel keeps its fixed membership.
    [coll=tree|flat] attaches a fault-tolerant collectives layer
    ({!Madeleine.Collectives}, retrieved with {!collectives});
    [coll_fanout=N] (>= 2, requires [coll=tree]) caps
    the children per spanning-tree node and [coll_quorum=N] (>= 1,
    requires [coll=]) is the live-rank minimum below which a collective
    fails typed; with [coll=] unset no layer is created and the
    vchannel behaves exactly as before. Network types: [sisci], [bip], [tcp], [via], [sbp]; [tcp] networks
    additionally accept [window=FRAMES] (selective-repeat window) and
    [max_retries=N] (consecutive RTO expiries before a connection is
    declared dead) — see {!Tcpnet.make_net} — and [bip] networks
    [credits=N] (short-message send window, {!Bip.make_net}). On a
    vchannel, [credits=N] arms end-to-end credit-based flow control and
    [gw_pool=N] sizes the gateway forwarding pools (both >= 1; see
    {!Madeleine.Vchannel.create}). [#] starts a comment. Declarations
    must appear in dependency order (networks, then nodes, then
    channels, then virtual channels). A key given twice on one line
    keeps its last value ([rendezvous=auto] included); each value is
    still checked where it appears. Node ranks are assigned in
    declaration order. A node named on a network (a channel's
    [nodes=], a link fault's [node=]) must be attached to it by its
    [nets=]. Every number must be finite: [nan] and [inf] are
    rejected.

    Every rejection raises {!Parse_error} with the line of the offending
    declaration: unknown keywords, options or names, malformed values,
    options on a declaration or network kind that does not take them,
    unmet prerequisites between options, and values the library itself
    refuses ({!Madeleine.Vchannel.create},
    {!Madeleine.Membership.create}, {!Madeleine.Collectives.create},
    {!Madeleine.Channel.create}, {!Simnet.Faults}; for instance
    [version=0], or a [topo_quorum=] larger than the vchannel).

    {2 Fault injection}

    [faults seed=N] creates a deterministic {!Simnet.Faults} plane and
    attaches it to every fabric of the description (declared before or
    after the line); it must precede any [fault] line, any
    [reliable=true] vchannel and any channel with a connect timeout that
    should actually fire. Individual faults then read:
    {v
    fault drop      net=NET node=NAME rate=R      # per-fragment loss
    fault corrupt   net=NET node=NAME rate=R      # per-fragment bit flip
    fault duplicate net=NET node=NAME rate=R      # frame delivered twice
    fault reorder   net=NET node=NAME rate=R jitter_us=J
    fault flap      net=NET node=NAME at_us=T for_us=D
    fault slow      net=NET node=NAME mb_s=R      # receive-rate cap
    fault crash     node=NAME at_us=T [restart_after_us=D]
    fault stall     node=NAME at_us=T for_us=D    # PCI-bus hog
    v}
    [fault reorder] holds a frame back, with probability [R], by a
    random delay of up to [J] us, so later frames overtake it
    ({!Simnet.Faults.set_reorder}; [J] must be positive).
    [fault slow] caps the rate at which the node drains frames arriving
    on the network ({!Simnet.Faults.slow_receiver}).
    [reliable=true] on a vchannel enables sequence-numbered delivery
    with origin logging and gateway failover against the declared
    plane (see {!Madeleine.Vchannel.create}). *)

type t

exception Parse_error of int * string
(** Line number (1-based) and explanation. *)

val load : string -> t
(** Builds the world from a description. All protocol resources are
    created immediately, as at session initialization. *)

val load_file : string -> t

val engine : t -> Marcel.Engine.t
val session : t -> Madeleine.Session.t

val faults : t -> Simnet.Faults.t option
(** The fault plane of a [faults seed=N] declaration, if any. *)

val networks : t -> string list
val nodes : t -> string list
val channels : t -> string list
val vchannels : t -> string list

val rank_of : t -> string -> int
(** Raises [Not_found] for unknown names, as do the lookups below. *)

val channel : t -> string -> Madeleine.Channel.t
val vchannel : t -> string -> Madeleine.Vchannel.t

val membership : t -> string -> Madeleine.Membership.t option
(** The live-topology layer of a [version=] vchannel declaration, by
    vchannel name; [None] when the vchannel was declared without
    [version=] (unknown names also yield [None]). *)

val collectives : t -> string -> Madeleine.Collectives.t option
(** The collectives layer of a [coll=] vchannel declaration, by
    vchannel name; [None] when the vchannel was declared without
    [coll=] (unknown names also yield [None]). *)

val tcp_net : t -> string -> Tcpnet.net
(** The protocol net of a [type=tcp] network, by network name, for
    workloads that drive raw TCP or read its counters. Raises
    [Invalid_argument] for a network of another type. *)

val tcp_stack : t -> net:string -> string -> Tcpnet.t
(** [tcp_stack t ~net node] is the TCP stack of [node] on the [type=tcp]
    network [net]. Raises [Invalid_argument] for a network of another
    type. *)

(** {2 Network kinds}

    One table maps each [type=] name to its link model and its protocol
    glue (the protocol's net over a fabric, an endpoint per node and the
    PMM driver over them); [load] and the hand-built testbeds of
    {!Harness} both read it. Both functions raise [Invalid_argument]
    for a name that is not a network type. *)

val link : string -> Simnet.Netparams.link
(** The link model of a network kind: [link "bip"] is
    {!Simnet.Netparams.myrinet}. *)

val driver :
  string ->
  Marcel.Engine.t ->
  Simnet.Fabric.t ->
  Simnet.Node.t list ->
  Madeleine.Driver.t
(** [driver kind engine fabric nodes] builds the kind's protocol over
    [fabric], with default options, attaches an endpoint to each of
    [nodes] (already on [fabric]) and returns the PMM driver over them;
    a channel's rank is its node's id. *)
