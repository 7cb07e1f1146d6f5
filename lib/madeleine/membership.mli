(** Live topology and quorum elections over a virtual channel.

    The paper's virtual channel spans a fixed set of real channels, set
    at channel-configuration time (§6). This layer sits on top of a
    {!Vchannel} the way {!Collectives} does and makes its membership
    live: the rank set becomes a versioned {!Topology} snapshot, and
    ranks can {!drain} out of and {!join} back into the session at
    runtime, under traffic. An epoch swap recomputes routes and re-emits
    only the flows whose routes actually changed (under their emission
    locks), and the sentinels learn/forget ranks as epochs advance.
    Requests and acknowledgments travel as [top] control packets on the
    data path, so gateways forward them like data.

    It attaches by replacing the vchannel's {!Vchannel.view}; without a
    membership layer the vchannel keeps its fixed view, and routes and
    schedules are those of the fixed-topology library.

    With [election], a quorum-elected coordinator replaces the static
    one. Suspicion becomes observer-relative and routes follow trust
    paths — an edge is usable only if its sender trusts the next hop —
    so each side of a partition keeps routing among itself. When a rank
    observes the coordinator dark (sentinel Down or a crash), its side's
    lowest reachable member stands for term [epoch + 1]: one ballot per
    rank per term (ballots are voided by the voter's crash-epoch restart
    — see {!Sentinel.reset_election}), and a candidacy commits the epoch
    bump only with a quorum of countable ballots — [topo_quorum] when
    pinned, else a majority of the {e current} committed membership, so
    a legitimately shrunk topology keeps its liveness while two disjoint
    partition sides can never both hold a majority of the same
    membership. Of two concurrent candidacies at most one ever commits a
    given epoch, and a minority side can neither elect nor commit
    membership changes: its coordinator refuses epoch bumps (counted in
    [refusals]) and its {!join}/{!drain} raise {!No_quorum} after
    parking the intent. On heal, reconciliation is highest-committed-wins
    (structural: the minority never advanced) and parked intents replay
    through the winning coordinator once it holds quorum again, exactly
    once. *)

type t

exception No_quorum of string
(** On an election-enabled membership, the caller's side of a partition
    cannot assemble a membership quorum: minority-side {!join}/{!drain}
    raise this (after parking the intent for post-heal replay) instead
    of hanging or silently diverging from the majority's history. *)

val create :
  ?coordinator:int ->
  ?election:bool ->
  ?topo_quorum:int ->
  version:int ->
  Vchannel.t ->
  t
(** Arm the live-topology plane on a vchannel, before its engine runs
    (the clusterfile's [version=], [coordinator=], [election=] and
    [topo_quorum=] keys). The vchannel's ranks become epoch [version];
    [coordinator] (default: the lowest rank) arbitrates membership.
    [election] (default [false]) quorum-elects the coordinator and
    needs a reliable vchannel (created with [~faults]): the sentinels
    carry both the suspicion verdicts a candidacy rides on and the
    ballot registries. [topo_quorum] pins the ballot quorum and needs
    [election]. One membership per vchannel.

    Raises [Invalid_argument], checking in this order, on a [version]
    below 1, a [coordinator] outside the rank set, [topo_quorum] without
    [election], [election] on a vchannel without a fault plane, and a
    [topo_quorum] outside [1..n]. *)

val join : t -> rank:int -> int
(** Re-admit a drained rank, called from the joining rank's context. The
    join request takes one membership-blind physical hop toward the
    coordinator (the joiner is not yet routable), the coordinator swaps
    in the next epoch — making the joiner routable without quiescing any
    existing flow — and acknowledges over the recomputed routes. Returns
    the epoch joined. Raises [Invalid_argument] if [rank] is already a
    member or not physically part of the channel, and
    {!Vchannel.Partitioned} if the rank is down or the coordinator does
    not admit it within the vchannel's patience. With [election] an
    unanswered join instead stands a replacement coordinator and retries
    against the election winner transparently; if no quorum is reachable
    it parks the intent for post-heal replay and raises {!No_quorum}. *)

val drain : t -> rank:int -> unit
(** Gracefully remove a member rank, called from that rank's context.
    Three phases: the rank stops accepting new flows (its
    {!Vchannel.begin_packing} raises {!Vchannel.Partitioned} while
    draining); it quiesces ({!Vchannel.quiescent}); then it notifies the
    coordinator, which swaps in the next epoch, drops the rank from
    every sentinel ({!Sentinel.forget}), and recomputes routes without
    it. Raises [Invalid_argument] on a non-member or the coordinator
    itself, and {!Vchannel.Partitioned} (aborting the drain) if the
    journals cannot flush or the coordinator does not confirm within
    the vchannel's patience. With [election] an unconfirmed notice
    stands a replacement coordinator (never the draining rank itself)
    and retries; with no quorum reachable the drain mark is withdrawn,
    the intent parked for post-heal replay, and {!No_quorum} raised. *)

val topology : t -> Topology.t
(** The current epoch snapshot. *)

val coordinator : t -> int
(** The currently committed coordinator. *)

val election : t -> bool
(** Whether the coordinator is quorum-elected. *)

type topology_stats = {
  topo_epoch : int;
  topo_members : int list;
  topo_coordinator : int;
  topo_joins : int;  (** epoch swaps that admitted a rank *)
  topo_drains : int;  (** epoch swaps that removed a rank *)
}

val topology_stats : t -> topology_stats

type election_stats = {
  quorum : int;
      (** ballots needed to commit right now — [topo_quorum] when
          pinned, else a majority of the current membership *)
  elections : int;  (** committed coordinator changes *)
  attempts : int;  (** candidacies started *)
  refusals : int;
      (** failed candidacies plus minority-coordinator epoch-bump
          vetoes *)
  commits : (int * int) list;
      (** every committed [(epoch, coordinator)], oldest first — the
          split-brain audit trail: at most one entry per epoch *)
  pending : int;  (** parked minority intents awaiting a heal *)
  last_latency_us : float;
      (** candidacy-start to commit of the latest election *)
}

val election_stats : t -> election_stats
(** Election counters; all zero (and [commits] empty) without
    [election]. *)
