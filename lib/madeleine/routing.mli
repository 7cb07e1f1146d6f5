(** The routing plane of a virtual channel: its channel graph and the
    fewest-hop routes over it (paper §6).

    The graph is fixed at channel-configuration time, so {!create}
    builds it once: one hop per directed edge (a rank to another rank
    of a shared channel), in channel-list then member-list order.
    Routes come from a breadth-first search from every source over the
    edges a [down] predicate keeps; the first edge to reach a node
    wins, so ties break in channel-list order. A route is stored as
    its discoverer's route plus one hop, sharing that prefix rather
    than copying it, and caches its first hop. The channel type ['c] is
    opaque here: the module is pure graph code. *)

type 'c hop = { hop_channel : 'c; hop_to : int }

type 'c t

val create :
  n:int -> ('c * int list) list -> down:(int -> int -> bool) -> 'c t
(** [create ~n channels ~down] builds the graph of [channels] (each with
    its member ranks, all below [n]) and the routes avoiding every edge
    [u -> v] with [down u v]; [down s s] leaves [s] without routes.
    The predicate is edge-shaped because a vchannel's suspicion can be
    relative to the viewer: a hop exists only when its sender trusts its
    receiver, so a route never enters a region its own relays would
    refuse to forward into. These creation-time routes stay readable
    through {!base_length}. *)

val mem : 'c t -> int -> bool
(** Whether a rank is a member of some channel. *)

val channels_of : 'c t -> int -> 'c list
(** The channels a rank is a member of, in channel-list order. *)

val neighbours : 'c t -> int -> int list
(** The ranks sharing at least one channel with a rank, in channel-list
    then member-list order. *)

val same_channel : 'c t -> int -> int -> bool
(** Whether two distinct ranks share a channel. *)

val routed : 'c t -> int -> int -> bool
(** Whether a current route leads from the first rank to the second
    (distinct) one. *)

val next_hop : 'c t -> src:int -> dst:int -> 'c hop
(** The first hop of the current route. Raises [Not_found] when there
    is none. *)

val via : 'c t -> src:int -> dst:int -> int list
(** The successive hop destinations of the current route, ending with
    [dst]; [[]] when there is none. *)

val base_length : 'c t -> src:int -> dst:int -> int
(** The hop count of the creation-time route; 0 when there was none. *)

val first_hop :
  'c t -> down:(int -> int -> bool) -> src:int -> dst:int -> 'c hop option
(** The first hop from [src] towards [dst] over the edges [down] keeps,
    from a single-source search that leaves the current routes as they
    are. *)

val recompute :
  ?overloaded:bool array -> 'c t -> down:(int -> int -> bool) -> unit
(** Replaces the current routes with those avoiding [down]. When some
    rank is [overloaded], a pair whose route can also avoid every
    overloaded rank takes that route instead; the others keep the plain
    one. *)

type 'c table
(** A snapshot of the current routes. *)

val routes : 'c t -> 'c table

val changed : 'c t -> before:'c table -> int -> int -> bool
(** [changed t ~before src dst]: whether the current route from [src]
    to [dst] takes different edges than it did in [before]. *)
