(** Simulated TCP streams over Fast Ethernet.

    Models the Linux 2.2 kernel path of the paper's testbed: tens of
    microseconds of per-operation system-call and stack overhead, and an
    effective payload bandwidth slightly under the 12.5 MB/s wire rate.
    Streams deliver bytes reliably and in order; message boundaries are
    not preserved (it is a byte stream, so [recv] may assemble bytes from
    several sends).

    When the underlying fabric has a fault plane attached
    ({!Simnet.Fabric.set_faults}), every [send] is cut at the MSS (the
    fabric's hardware MTU) into checksummed, sequence-numbered frames of
    at most one MSS each, in a selective-repeat sliding window: up to
    [window] frames ride the wire at once, and a lost fragment costs
    one frame's resend, not the whole send's. The receiver holds frames
    that arrive past a hole and drains them in order once it fills;
    every ack carries the cumulative point, the held set (SACK) and the
    send instant and seq of the frame copy that triggered it (a
    timestamp echo), and the sender never resends a frame reported
    held. Loss is detected by time (RACK-TLP, RFC 8985): a frame sent
    before the most recently sent copy an ack echoed is lost once that
    copy's round trip plus a reordering window of a quarter of the
    minimum RTT has passed since the frame was sent, which also finds a
    lost resend as soon as a frame sent after it is delivered; and when
    no ack makes progress and no frame is sent for two smoothed RTTs,
    and one more SRTT has passed since the last frame left the wire,
    one tail-loss probe per flight resends the highest unSACKed frame,
    so a lost tail raises the ack RACK needs. The
    retransmission timer adapts to the measured RTT (Jacobson/Karel
    SRTT/RTTVAR on the simulated clock, Karn's rule on retransmits); it
    is the last resort, and its expiry resends only the frames not
    reported held. Corruption is detected by CRC-32 on every accepted
    frame, held ones included, and treated as loss. A peer the plane
    reports crashed fails sends fast with {!Timeout}. When a host
    restarts, the sockets of every connection touching it are reset at
    that instant: both ends drop their frames in flight, their held
    frames and their unread bytes. No frame is replayed; the layer
    above (Madeleine's reliable vchannel) replays whole packets from its
    own logs. The next send (or pending retransmission) then performs a
    session handshake that agrees on both ends' epochs and cursors and
    revives the connection. Without a fault plane (the default) the
    original fault-free path runs, bit for bit.

    Where the code lives: {!Recovery} decides. It holds the sender's
    frames in flight, its SACK marks, RACK and probe state, RTT
    estimate and backoff, and it names the one thing due: resend the
    marked frames, probe, expire or wait. It makes no engine or fabric
    call. This module drives it: it cuts and transmits frames, runs the
    receiver, schedules acks through the fault plane's verdicts, owns
    the retransmitter daemon and its single timer, reacts to crashes,
    restarts and heals, performs the session handshake and admits
    sends to the window. *)

module Recovery = Recovery

exception Timeout of { msg : string; attempts : int }
(** A [?timeout] expired, or the peer host is unreachable. [attempts] is
    the count of consecutive RTO expiries when the connection was given
    up (0 for plain receive/connect timeouts). *)

type net
type t
(** A host TCP stack. *)

type conn
(** One end of an established stream. *)

val make_net :
  ?window:int -> ?max_retries:int -> Marcel.Engine.t -> Simnet.Fabric.t -> net
(** [window] (default 24, >= 1) is the selective-repeat window in
    frames of at most one MSS (24 x 1460 B, about 35 kB, on Fast
    Ethernet): the sender keeps at most [window] frames in flight and
    the receiver holds at most [window - 1] past a hole ([window = 1]
    is stop-and-wait);
    [max_retries] (default 12, >= 1) is the number of consecutive RTO
    expiries after which a connection is declared dead. Both only matter
    under a fault plane. *)

val attach : net -> Simnet.Node.t -> t
val node : t -> Simnet.Node.t
val engine : t -> Marcel.Engine.t

val fabric_name : t -> string
(** Name of the fabric this stack's frames cross (for fabric-scoped
    failure-detector heartbeats). *)

val net_stats : net -> int * int
(** [(retransmissions, crc_rejects)] summed over every connection of the
    net ({!retries} and each end's CRC rejects) — both zero unless a
    fault plane is attached. *)

val net_handshakes : net -> int
(** Crash-epoch session handshakes performed across the net, counted
    once per handshake although one revives both ends. *)

type recovery = {
  rto_expiries : int;  (** retransmission-timer expiries *)
  rack_marks : int;  (** frames RACK marked lost *)
  probes : int;  (** tail-loss probes sent *)
  duplicate_arrivals : int;
      (** frames a receiver discarded as already delivered or held, or
          as beyond the window *)
}

val recovery_stats : net -> recovery
(** How the net's connections recovered, summed over all of them: every
    retransmission counted by {!net_stats} is a RACK resend, a probe or
    part of an RTO expiry's resend, and [duplicate_arrivals] counts the
    copies that proved unneeded. All zero without a fault plane. *)

val listen : t -> port:int -> unit
(** Opens a passive socket. Raises [Invalid_argument] if the port is
    already bound on this host. *)

val accept : t -> port:int -> conn
(** Blocks for the next incoming connection on [port] (which must be
    listening). *)

val connect : ?timeout:Marcel.Time.span -> t -> node_id:int -> port:int -> conn
(** Active open; pays one round trip of handshake. Raises
    [Invalid_argument] if the target is unknown or not listening. If a
    fault plane reports the target host down, the SYN is lost: with
    [?timeout] the call raises {!Timeout} after that span; without it,
    the call blocks until the engine stalls (like a blocking [connect]
    with no timer). *)

val socketpair : t -> t -> conn * conn
(** Pre-established connection between two hosts, as set up during a
    communication library's session initialization (no handshake is
    charged; session bootstrap is outside the paper's measurements).
    Returns the two ends in argument order. *)

val send : conn -> Bytes.t -> unit
(** Blocks for the kernel send path; returns when the payload has been
    handed to the stack (socket-buffer semantics), with delivery
    continuing asynchronously. The payload is copied once, on entry, so
    the caller may reuse its buffer as soon as the call returns. Under a
    fault plane, additionally blocks while the send window is full;
    recovery is then driven by a per-conn retransmitter daemon, so the
    call returns with frames still in flight and raises {!Timeout}
    only if the connection is (or becomes, while waiting for window
    space) dead. *)

val recv :
  ?timeout:Marcel.Time.span -> conn -> Bytes.t -> off:int -> len:int -> unit
(** Reads exactly [len] bytes into [buf] at [off], blocking as needed.
    With [?timeout], raises {!Timeout} if the bytes have not all arrived
    within that span. *)

val available : conn -> int
(** Bytes currently buffered for reading. *)

val send_group : conn -> (Bytes.t * int * int) list -> unit
(** Scatter-gather send ([writev]): ships each [(buf, off, len)] slice in
    order while paying the kernel entry cost only once. The slices are
    copied once, on entry: into a single staging buffer that travels as
    one chunk, or under a fault plane straight into MSS-sized frames,
    so the caller may reuse them as soon as the call returns. [send] is the one-slice case.
    Raises [Invalid_argument] if a slice is out of bounds. *)

val recv_group : conn -> (Bytes.t * int * int) list -> unit
(** Gather receive ([readv]): fills each [(buf, off, len)] slice in order,
    paying the kernel exit cost only once. *)

val set_data_hook : conn -> (unit -> unit) -> unit
(** [hook] fires whenever newly delivered bytes become readable on this
    connection (used by Madeleine's any-source message detection). *)

(** {1 Connection health} — meaningful only under a fault plane. *)

val is_dead : conn -> bool
(** Retransmission gave up on this connection; sends fail fast with
    {!Timeout} until the peer host restarts (new fault-plane epoch). *)

val retries : conn -> int
(** Total retransmissions performed on this end of the connection. *)

val consecutive_failures : conn -> int
(** Consecutive RTO expiries since the last acknowledged progress — the
    driver maps this to a [Degraded] peer-health report. *)

val duplicate_frames : conn -> int
(** Frames this end received but discarded as duplicates of a frame
    already delivered or held, or as beyond the window. A frame past a
    hole is held, not counted. *)

(** {1 Queue instrumentation} — peak occupancy of the stack's two
    buffering points, for backpressure invariant checks. A receiver
    throttled by {!Simnet.Faults.slow_receiver} drains delivered frames
    through a per-connection pacing cursor at the capped rate (FIFO
    order preserved); the retransmission-timer floor uses the capped
    rate too, so a slow-but-lossless receiver is never mistaken for a
    dead one. Without a cap (and without a fault plane) the delivery
    path is untouched. *)

val sendq_peak : conn -> int
(** Highest send-window occupancy (frames in flight, held-at-receiver
    ones included) ever reached by this end — never exceeds the net's
    [window]. *)

val queue_peaks : net -> int * int
(** [(inbox bytes, sendq frames)] — the maxima of the two peaks above
    over every connection of the net. *)
