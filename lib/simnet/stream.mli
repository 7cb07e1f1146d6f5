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
