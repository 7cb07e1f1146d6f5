(** The reliability plane of a virtual channel: end-to-end delivery
    against a fault plane.

    Data packets carry 16-bit sequence numbers per (origin, final
    destination) pair and stay in the origin's log until a cumulative
    ack trims them. When a gateway crashes or a sentinel suspects a
    peer, routes are recomputed and the logged packets re-emitted; the
    destination's sequence check drops the duplicates. A node that
    restarts under a new crash epoch resumes numbering from the peers'
    session handshakes, so delivery stays exactly-once. One phi-accrual
    {!Sentinel} per rank turns silence into suspicion and reroutes
    before a send times out. Every walk over per-pair state goes in
    ascending rank order: re-emission daemons and handshakes leave in
    that order, which is part of the simulated schedule.

    {!Vchannel.create} builds this plane only when given a fault plane.
    The core calls it through {!hooks}; the plane calls the core
    through {!core}. A vchannel without a fault plane installs plain
    hooks instead and holds none of this state. *)

(** What the plane needs from the vchannel core. *)
type core = {
  engine : Marcel.Engine.t;
  patience : Marcel.Time.span;
      (** how long a send waits for a route, a handshake or an ack *)
  routing : Channel.t Routing.t;
  ranks : int list;  (** the vchannel's ranks, ascending *)
  send : at:int -> Generic_tm.packet_header -> Bytes.t -> int -> unit;
      (** one attempt over the current routes: raises
          {!Config.Partitioned} when [at] has no route, and
          {!Config.Peer_unreachable} when the next hop is dead *)
  ship_detached :
    kind:string -> at:int -> Generic_tm.packet_header -> Bytes.t -> unit;
      (** a best-effort control packet on its own daemon *)
  emission_lock : src:int -> dst:int -> Marcel.Mutex.t;
      (** the lock that serializes emission on a pair *)
  reroute : unit -> unit;
      (** recompute the routes around down, distrusted and overloaded
          ranks *)
  relative : unit -> bool;  (** the membership view's [relative] *)
  after_crash : int -> unit;  (** the membership view's [on_crash] *)
  after_verdict : me:int -> int -> Sentinel.state -> unit;
      (** the membership view's [on_verdict] *)
  health : unit -> unit;  (** the vchannel's health-change hook *)
  credit_crash : int -> unit -> unit;
      (** the credit plane's crash reset (see {!Credits.hooks}) *)
}

(** The plane's counters; {!Vchannel} re-exports them as
    {!Vchannel.rel_stats} and {!Vchannel.flow_stat}. *)
module Stats : sig
  type rel_stats = {
    reroutes : int;
    reemitted : int;
    dup_drops : int;
    handshakes : int;
  }

  type flow_stat = {
    flow_src : int;
    flow_dst : int;
    sent : int;
    unacked : int;
    delivered : int;
  }
end

(** What the core asks of the plane. *)
type hooks = {
  ship : at:int -> Generic_tm.packet_header -> Bytes.t -> int -> unit;
      (** ship a packet from [at]: a dead next hop is retried, a route
          hole waited out, and {!Config.Partitioned} raised when no
          route survives *)
  seal : Generic_tm.packet_header -> Bytes.t -> Generic_tm.packet_header;
      (** number a data packet and log a copy for re-emission; blocks
          while the pair's cursor is lost to a crash or its log is
          full *)
  deliver : me:int -> Generic_tm.packet_header -> (unit -> unit) -> unit;
      (** run the sequence check on a data packet at its destination:
          call the thunk on the expected one, drop any other, ack *)
  on_hs : me:int -> Generic_tm.packet_header -> Bytes.t -> unit;
      (** a session handshake reached its restarted destination *)
  on_ack : Generic_tm.packet_header -> unit;
      (** a cumulative ack reached the flow's origin *)
  node_up : int -> bool;
  distrusts : int -> int -> bool;
      (** [distrusts viewer n]: [n] is down or under suspicion, as
          [viewer] sees it; outside relative suspicion [viewer] does not
          matter *)
  no_route : string -> exn;  (** the error of a send with no route *)
  overload_edge : int -> bool -> unit;
      (** a gateway crossed its watermark: sentinels hear the report
          and routes move *)
  swap : Topology.change -> unit;
      (** an epoch swap: sentinels learn and forget ranks, routes are
          recomputed and the flows whose route changed re-emitted *)
  ack_for : me:int -> origin:int -> int option;
      (** the cumulative ack [me] owes [origin], for a grant to carry *)
  await_route : at:int -> dst:int -> unit;
      (** wait out a route hole, for a credit-blocked sender *)
  faults : Simnet.Faults.t option;
  sentinel : int -> Sentinel.t option;
  stats : unit -> Stats.rel_stats option;
  flows : unit -> Stats.flow_stat list;
  log_peaks : (int -> int -> int -> unit) -> unit;
      (** [f src dst peak] for every pair's re-emission log *)
}

val create : unacked_cap:int -> core -> Simnet.Faults.t -> hooks
(** The plane over a fault plane, its re-emission logs capped at
    [unacked_cap] packets. Registers the crash and restart reactions on
    the fault plane, then starts one sentinel per rank that has channel
    neighbours, in ascending rank order. *)
