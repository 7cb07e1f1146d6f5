(** Phi-accrual failure detector: per-peer heartbeats with a continuous
    suspicion level instead of a binary timeout.

    Each node of a reliable vchannel runs one sentinel. It probes its
    peers every 500 us through the fault plane ({!Simnet.Faults.heartbeat},
    so a probe crosses the same crashed-node / flapped-link / lossy-link
    conditions data frames do), maintains an estimate of the heartbeat
    inter-arrival time, and derives the suspicion value

    {[ phi = elapsed_since_last_arrival / (mean_interval * ln 10) ]}

    — the exponential-model form of the Hayashibara phi-accrual
    detector. [phi >= 1.0] moves the peer to [Degraded], [phi >= 2.0]
    to [Down]; one successful probe snaps it back to
    [Up]. Registered callbacks fire on every transition, letting the
    channel reroute around a suspect *before* a send times out on it.

    Probing is activity-gated: it runs only within 2 ms of the last
    {!touch} (the channel touches on every packet it moves), then the
    daemon parks with no pending timer so the engine can quiesce. An
    idle world therefore pays nothing, and a fault-free run's schedule
    is unchanged by attaching a sentinel. *)

type t

type state = Up | Degraded | Overloaded | Down
(** [Overloaded] is a load report, not a liveness verdict: a peer above
    its forwarding-pool high watermark announces it is shedding load (see
    {!set_overloaded}). A successful probe keeps an overloaded peer in
    [Overloaded] — it is alive — and the state clears back to [Up] only
    when the load report does. [Down] always wins over a load report. *)

val state_name : state -> string

type event = {
  ev_at : Marcel.Time.t;
  ev_peer : int;
  ev_from : state;
  ev_to : state;
  ev_phi : float; (* suspicion level at the transition *)
}

val create :
  Marcel.Engine.t ->
  Simnet.Faults.t ->
  me:int ->
  peers:int list ->
  ?fabric:string ->
  unit ->
  t
(** [fabric] scopes probes to one fabric's link faults; without it only
    node liveness is probed. [me] is removed from [peers] if present.
    The detector does not run until {!start}. *)

val start : t -> unit
(** Spawns the probe daemon (idempotent). *)

val touch : t -> unit
(** Records activity: probing continues for 2 ms past the last
    touch, and a parked daemon is woken. Channels call this on every
    packet they send, forward or deliver. *)

val learn : t -> int -> unit
(** Starts watching a peer with fresh detector state (no-op when the
    peer is already watched, or is [me]). Used by live-topology
    vchannels when a rank joins under a new epoch. *)

val forget : t -> int -> unit
(** Drops every trace of a peer — EMA, arrival clock, verdict, overload
    flag. Used when a rank drains: without this the detector's per-rank
    state would grow unboundedly in a long-lived elastic session. A
    forgotten peer reports {!state} [Up] (never probed) and is absent
    from {!suspected} and {!watched}. No-op on unknown peers. *)

val watched : t -> int list
(** Peers currently being probed, in watch order. *)

val on_transition : t -> (int -> state -> state -> unit) -> unit
(** [cb peer from to_] runs from the probe daemon on every state
    change; it must not block, but may spawn threads. *)

val state : t -> int -> state
(** Current verdict on a peer (peers never probed report [Up]). *)

val phi : t -> int -> float
(** Instantaneous suspicion level for a peer. *)

val set_overloaded : t -> peer:int -> bool -> unit
(** Load report for a peer: [true] when it crossed its high watermark,
    [false] when it drained below its low watermark. Transitions the peer
    to [Overloaded] / back to [Up] (recorded in the {!timeline} and fed
    to {!on_transition} listeners), except that a [Down] peer stays
    [Down]. Unknown peers are ignored. *)

val suspected : t -> int list
(** Peers whose liveness is currently in question ([Degraded] or
    [Down]). [Overloaded] peers are alive and not listed. *)

val probes : t -> int
(** Heartbeats sent so far. *)

val timeline : t -> event list
(** Every transition so far, oldest first. *)
