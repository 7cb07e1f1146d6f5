(** Versioned live topology: epoch-numbered immutable snapshots of the
    rank set.

    A snapshot records which ranks are members of the session at a given
    epoch, plus the coordinator rank that arbitrates membership changes.
    Snapshots are immutable; {!join} and {!drain} return a fresh
    snapshot with the epoch advanced by one, so holders of an old
    snapshot keep a consistent view until they pick up the new one.
    {!diff} compares two snapshots: it is the change {!Membership}
    hands the vchannel core at an epoch swap.

    The physical world (nodes, channels, fabrics) is fixed at
    {!Vchannel.create} time; the topology restricts which of those
    physical ranks are currently *members*. A drained rank keeps its
    hardware — it can later {!join} again under a higher epoch. *)

type t

type change = { joined : int list; departed : int list }

val make : ?epoch:int -> coordinator:int -> int list -> t
(** Fresh snapshot over [ranks] (deduplicated, sorted). Raises
    [Invalid_argument] if the rank set is empty, the epoch is negative,
    or the coordinator is not a member. [epoch] defaults to 0. *)

val epoch : t -> int
(** Strictly increases with every membership change. *)

val ranks : t -> int list
(** Current members, sorted ascending. *)

val coordinator : t -> int
val mem : t -> int -> bool

val join : t -> int -> t
(** Next epoch with [rank] added. Raises [Invalid_argument] if it is
    already a member. *)

val drain : t -> int -> t
(** Next epoch with [rank] removed. Raises [Invalid_argument] if it is
    not a member or is the coordinator. *)

val with_coordinator : t -> int -> t
(** Next epoch with the coordinator moved to [rank] — the snapshot a
    quorum election commits. Raises [Invalid_argument] if [rank] is not
    a member; returns the snapshot unchanged (same epoch) if [rank]
    already coordinates. *)

val diff : t -> t -> change
(** [diff old new_] lists the ranks that joined and departed going from
    [old] to [new_]. *)

val pp : Format.formatter -> t -> unit
