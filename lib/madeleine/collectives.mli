(** Fault-tolerant collectives over virtual channels.

    Barrier, broadcast, reduce, allreduce and all-to-all, running on
    spanning trees computed from the {e physical} topology: every tree
    edge is a single fabric link taken from the channel membership
    graph, so the interior nodes are genuine gateways and partial
    reduction happens in the forwarding path — a gateway merges its
    children's contributions and ships one combined payload upward
    (the software analogue of NIC-based combining), instead of every
    leaf payload crossing the whole network to the root.

    The layer is generation-based for robustness. Every liveness
    transition the vchannel acts on — crash, restart, sentinel
    suspicion raised or cleared, Overloaded watermark edge, topology
    epoch swap — bumps a repair generation: partial aggregates of the
    old generation are abandoned, parked participants wake, a fresh
    tree is built over the survivors (an Overloaded gateway is kept
    off the spine when any alternative exists, a crashed or drained
    rank is excluded entirely), and contributions are re-sent. Within
    the generation that decides, every rank is counted at most once;
    the root's decision is journalled per collective id, and a
    restarted rank re-joining an already decided collective is
    answered from that journal — never re-opening the aggregation —
    which makes contributions exactly-once across a crash/restart
    cycle and all survivors' results bit-identical.

    Ranks must issue the same sequence of collectives (the usual MPI
    ordering contract): each rank's calls are numbered by a cursor
    that advances only on completion, so a restarted rank re-entering
    its interrupted call re-joins the same collective instance. *)

type t

exception Collective_failed of string
(** Raised only when no quorum of live ranks remains, or when repair
    attempts are exhausted without progress (a partition the sentinels
    never resolved). A plain crash among survivors above quorum is
    repaired, not raised. *)

type algo =
  | Tree  (** topology-aware spanning tree with gateway combining *)
  | Flat  (** star at the root: every contribution crosses the whole
              network individually — the measured linear baseline *)

val create :
  ?algo:algo ->
  ?fanout:int ->
  ?quorum:int ->
  ?patience:Marcel.Time.span ->
  Vchannel.t ->
  t
(** Attach a collectives layer to a vchannel. [fanout] caps the
    children per tree node (default 4); [quorum] is the minimum number
    of live ranks below which a collective fails typed (default 1);
    [patience] bounds how long a participant parks before forcing a
    repair generation (default {!Config.default_route_patience}).
    Installs the vchannel's [col] handler and health-change hook; one
    layer per vchannel. Creation is passive — no thread runs and no
    packet moves until a collective is called, so a vchannel without a
    layer (clusterfile [coll=] unset) behaves byte-identically to one
    that never had the code. Raises [Invalid_argument] when [fanout]
    is less than 2 or [quorum] less than 1. *)

val barrier : t -> me:int -> unit
(** Synchronize the live ranks: returns once the decision of a
    zero-byte reduction has reached [me]. *)

val bcast : t -> me:int -> root:int -> Bytes.t option -> Bytes.t
(** One-to-all: the root calls with [Some value], everyone else with
    [None]; all callers return the root's bytes. If [root] is dead the
    tree re-roots for delivery, but only a value published by [root]
    can decide the collective. *)

val reduce :
  t -> me:int -> root:int -> op:(Bytes.t -> Bytes.t -> Bytes.t) ->
  Bytes.t -> Bytes.t
(** All-to-one combination under [op], which must be associative and
    commutative — gateways apply it to child contributions in
    arrival order. Decides at [root] (re-rooted deterministically to
    the lowest live rank if [root] is dead) and, unlike MPI, delivers
    the result to every live caller — the decision flood doubles as
    the exactly-once acknowledgment. *)

val allreduce :
  t -> me:int -> op:(Bytes.t -> Bytes.t -> Bytes.t) -> Bytes.t -> Bytes.t
(** {!reduce} rooted at the lowest live rank, result everywhere. *)

val alltoall : t -> me:int -> (int * Bytes.t) list -> (int * Bytes.t) list
(** Personalized exchange: ship each [(rank, block)] to its rank,
    return the blocks received from every live rank (own block
    included when provided), sorted by rank. Blocks are re-sent under
    repair generations and applied idempotently. *)

val algo : t -> algo
val quorum : t -> int

val generation : t -> int
(** The current repair generation — bumped by every liveness
    transition the vchannel reports. *)

type stats = {
  packets : int;  (** collective-control payloads shipped *)
  combined : int;
      (** contributions merged into an existing partial at a gateway —
          each one is a payload that did {e not} travel to the root *)
  root_contribs : int;
      (** contribution packets the deciding root received — fanout-ish
          under [Tree], [n-1] under [Flat]: the combining on/off
          payload count *)
  dup_suppressed : int;
      (** duplicate contributions dropped whole (same contributor,
          same generation) — never merged, hence never double-counted *)
  journal_answers : int;
      (** late contributions answered from the decision journal (the
          restarted-rank re-join path) *)
  repairs : int;  (** repair generations forced or observed *)
  generation : int;
  last_depth : int;  (** depth of the last deciding tree *)
  last_rounds : int;  (** up+down rounds of the last decided collective *)
  last_covered : int list;
      (** ranks whose contributions the last decision covers, sorted *)
}

val stats : t -> stats

val tree_spine : t -> (int * int) list
(** The [(rank, parent)] edges of the tree the current generation
    would use, rooted at the lowest live rank — for tests asserting
    that an Overloaded gateway was kept off the spine. *)

val tree_depth : t -> int
(** Depth of that tree. *)
