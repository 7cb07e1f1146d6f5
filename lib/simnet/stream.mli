(** Persistent, order-preserving staged delivery pipeline.

    Where {!Pipeline.run} builds a one-shot pipeline per transfer (fine
    for synchronous transfers like rendezvous), a [Stream.t] is a
    long-lived pipeline shared by every message on one direction of one
    link: messages are fragmented and flow through the stages strictly
    FIFO, so later (smaller) messages can never overtake earlier ones —
    the in-order guarantee of real NIC hardware that per-transfer
    threads cannot provide.

    The pusher does not block: delivery continues in the stages
    (posted PIO writes, kernel socket buffers, NIC send queues), and the
    [on_delivered] callback fires when the message's last fragment has
    left the final stage. *)

type t

val create : Marcel.Engine.t -> stages:Pipeline.stage list -> mtu:int -> t
(** A {!Pipeline.chain} over [stages] followed by a cost-free delivery
    stage; no thread is spawned. [mtu] is the fragmentation granularity
    — the unit at which stages overlap. *)

val push : t -> bytes_count:int -> on_delivered:(unit -> unit) -> unit
(** Enqueues one message. Never blocks, and may be called from a thread
    or from an engine callback. [on_delivered] runs in event context, in
    push order, once the message's last fragment has left the final
    stage: it must not block (no [sleep], [suspend], mailbox [take] or
    lock) — waking threads, filling ivars and scheduling with
    {!Marcel.Engine.at} are fine, and anything longer belongs in a
    thread it wakes. A zero-byte message still traverses the pipeline
    as one empty fragment. *)

val inject :
  t ->
  use:Pipeline.fluid_use ->
  grain:int ->
  bytes_count:int ->
  on_crossed:(unit -> unit) ->
  on_delivered:(unit -> unit) ->
  unit
(** A message that must first cross a local fluid (the sender's PCI
    bus) before it enters the stream, as a NIC forwards a write as the
    bridge emits it: the [bytes_count] bytes cross [use] in chunks of at
    most [grain] bytes, one {!Fluid.start} after the other, and each
    chunk is pushed into the stream as its crossing completes (inside
    the completion event unless another event is queued at that
    instant, see {!Pipeline.chain}), so delivery overlaps the rest of
    the crossing. Never blocks. [on_crossed] runs once the last chunk has crossed and
    [on_delivered] once it has been delivered; both run in event
    context, under the rules of {!push}. A sending thread that waits
    for [on_crossed] suspends once per message, not once per chunk.
    Raises [Invalid_argument] unless [bytes_count] and [grain] are
    positive. *)
