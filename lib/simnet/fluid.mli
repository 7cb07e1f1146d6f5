(** Max–min fair shared bandwidth resource.

    A [Fluid.t] models a shared transport resource — a PCI bus, the TX or
    RX side of a network link — with a fixed capacity in MB/s. Concurrent
    transfers share the capacity by *weighted max–min fairness*
    (water-filling): transfer [i] receives
    [min (rate_cap_i, weight_i * lambda)] where [lambda] is chosen so the
    allocations sum to the effective capacity.

    Weights model arbitration priority. The paper observes (§6.2.3) that
    on the gateway's PCI bus, Myrinet-initiated DMA transactions starve the
    CPU's PIO writes to the SCI segment by roughly a factor of two; giving
    DMA-class transfers twice the PIO weight reproduces exactly that.

    The optional [contention_factor] degrades capacity when two or more
    transfers are active, modelling the full-duplex "conflicts raised on
    the PCI bus" of §6.2.2 that cap the forwarding asymptote below the
    nominal half-capacity. *)

type t

val create :
  Marcel.Engine.t ->
  name:string ->
  capacity_mb_s:float ->
  ?contention_factor:float ->
  ?mixed_contention_factor:float ->
  unit ->
  t
(** [contention_factor] defaults to [1.0] (no degradation); must be in
    (0, 1]. [mixed_contention_factor] (default = [contention_factor])
    applies instead when the concurrent transfers belong to different
    transaction classes (e.g. CPU PIO interleaved with NIC DMA): on PCI,
    mixing posted NIC writes with CPU write-combined stores breaks
    bursting and costs extra turnaround cycles — the paper's §6.2.3
    observation that Myrinet DMA traffic halves the gateway's concurrent
    SCI PIO sends. *)

val name : t -> string

val transfer :
  t ->
  bytes_count:int ->
  weight:float ->
  ?rate_cap:float ->
  ?cls:int ->
  unit ->
  unit
(** Blocks the calling thread for as long as the weighted fair-share
    schedule needs to move [bytes_count] bytes: {!start} with the
    thread's wake-up as [on_done], so resuming costs one more event at
    the completion instant. Must be called from inside an engine thread.
    Zero-byte transfers return immediately. [cls] labels the transaction
    class (default [0]); it only affects which contention factor applies
    when classes mix. *)

val start :
  t ->
  bytes_count:int ->
  weight:float ->
  ?rate_cap:float ->
  ?cls:int ->
  on_done:(unit -> unit) ->
  unit ->
  unit
(** Non-blocking form of {!transfer}: joins the fair-share schedule now
    and returns; [on_done] runs inside the engine event at which the
    last byte has moved, after the fluid has rescheduled the transfers
    still active, so it may start the next transfer on the same fluid
    directly. It runs in event context, so it must not block — to
    resume a thread, wake it. A zero-byte transfer calls [on_done]
    before [start] returns. Usable from threads and from raw engine
    callbacks alike. *)

val total_bytes : t -> float
(** Total bytes moved through this resource since creation. *)

val utilization : t -> now:Marcel.Time.t -> float
(** Busy fraction of the interval [0, now]. *)
