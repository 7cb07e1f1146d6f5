(** The reliable TCP sender's loss-recovery policy, as a pure state
    machine.

    One [t] per connection end holds the frames in flight, the
    cumulative point and SACK marks, RACK's record of the most recently
    sent copy an ack echoed (RFC 8985), the tail-loss probe state, the
    Jacobson/Karels RTT estimator with Karn's rule, the RTO backoff and
    the count of consecutive expiries. It reads no clock and schedules
    nothing: {!Tcpnet} passes the instant in, transmits what it is told
    to, and runs the one timer {!next} asks for. Every decision is a
    function of the calls made so far, so a trace of sends, acks and
    timer firings can be replayed without a simulation. *)

module Time = Marcel.Time

type frame = private {
  seq : int;
  data : Bytes.t;
  crc : int;
  mutable sent_at : Time.t;  (** last (re)transmission instant *)
  mutable floor : Time.span;  (** serialization lower bound for the RTO *)
  mutable rexmit : bool;  (** resent at least once (Karn's rule) *)
  mutable sacked : bool;  (** the receiver reported it held: never resent *)
  mutable lost : bool;  (** RACK marked it lost; its next copy clears it *)
}
(** One frame in flight: a payload of at most one MSS and its CRC-32,
    both opaque here, and the bookkeeping the policy keeps on it. *)

type t

val create : max_retries:int -> t
(** [max_retries] consecutive RTO expiries declare the peer dead. *)

(** {1 The sender's inputs} *)

val on_send :
  t -> now:Time.t -> data:Bytes.t -> crc:int -> floor:Time.span -> frame
(** A new frame joins the flight under the next sequence number, stamped
    as sent at [now] (the caller may still pay a kernel entry before its
    copy leaves: {!on_transmit} restamps it). *)

val on_resend : t -> frame -> floor:Time.span -> unit
(** [f] is about to be sent again, its RTO floor now [floor]: it is
    flagged resent, so its ack gives no RTT sample, and counted. *)

val on_transmit : t -> frame -> now:Time.t -> fresh:bool -> unit
(** A copy of the frame leaves at [now], clearing its loss mark. The
    first copy of a new frame ([fresh]) also restarts the probe clock. *)

val on_ack :
  t ->
  now:Time.t ->
  upto:int ->
  sacks:int list ->
  sent:Time.t ->
  seq:int ->
  drained:Time.t option ->
  Time.t
(** An ack arrives at [now]: [upto] is the receiver's cumulative point,
    [sacks] the ascending seqs it holds past a hole, and [sent]/[seq]
    the timestamp echo of the frame copy that triggered it. [drained] is
    the instant the sender's out stream (and a capped receiver's drain)
    last emptied, [None] while bytes are still in it. Returns the
    instant by which the retransmitter must run: [now] when RACK has
    marked a loss, the timer's next deadline after progress or with a
    reordering window pending, or [max_int] when it need not be
    disturbed. *)

val probe_sent : t -> unit
(** The probe {!next} chose left: counted in {!probes}. *)

val reset : t -> purge:bool -> unit
(** Forgets the RTT estimate, RACK and the probe state, the backoff and
    the consecutive expiries, as a session handshake does; with
    [~purge:true] also drops the flight and moves the cumulative point to
    the last seq sent, as a socket reset does. Sequence numbers keep
    running. *)

(** {1 Decisions} *)

type action =
  | Idle  (** nothing in flight *)
  | Resend of frame list  (** RACK-marked frames, oldest first *)
  | Probe of frame
      (** the highest unSACKed frame, as this flight's one tail-loss
          probe, now spent *)
  | Rto  (** the oldest frame's RTO has passed: call {!expire} *)
  | Wait of Time.t  (** nothing is due before this instant *)

val next : t -> now:Time.t -> drained:Time.t option -> action
(** The one thing due at [now], after marking the frames RACK finds
    lost; [drained] as for {!on_ack}. A frame sent before the most
    recently sent copy known delivered is lost once that copy's round
    trip plus [min_rtt / 4] has passed since its own last copy left.
    With no progress and no new frame for two smoothed RTTs, and one
    SRTT after the stream drained, one probe per flight is due, never
    before the first RTT sample, after an expiry without progress or
    later than the RTO. Marked frames go first, then the probe, then
    the RTO. *)

val next_deadline : t -> drained:Time.t option -> Time.t
(** The earlier of the RTO and the probe deadline, without a RACK scan;
    [max_int] with nothing in flight. *)

type expiry = Resend_all of frame list | Dead

val expire : t -> expiry
(** One RTO expiry: counted as a consecutive failure; the peer is
    [Dead] once there are [max_retries] of them, otherwise the RTO
    doubles (up to 2^10 times its base) and every unSACKed frame is
    resent, oldest first. *)

(** {1 State} *)

val resendable : t -> frame -> bool
(** Neither acked nor SACKed. *)

val is_head : t -> frame -> bool
val acked : t -> int
val next_seq : t -> int
val in_flight : t -> int
val inflight_bytes : t -> int
val consec_fail : t -> int

val rto : t -> Time.span
(** The oldest frame's RTO: the larger of SRTT + max(4 RTTVAR, 100 us)
    (once sampled) and the frame's floor, doubled per consecutive
    expiry up to 2^10 times. The flight must not be empty. *)

val retries : t -> int
(** Frames resent, for any reason. *)

val rto_expiries : t -> int
val rack_marks : t -> int
val probes : t -> int
