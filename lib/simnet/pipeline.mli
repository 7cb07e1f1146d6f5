(** Staged, fragment-pipelined data movement.

    A hardware message transfer crosses several serializing resources in
    sequence (sender PCI, TX link, RX link, receiver PCI, ...). Hardware
    pipelines these stages at packet granularity: while fragment [k] is on
    the wire, fragment [k+1] is already crossing the sender's PCI bus.

    [run] models this faithfully: the message is split into MTU-sized
    fragments; each stage processes fragments in order, one at a time,
    paying the stage's fixed per-fragment cost plus the fluid occupancy
    for the fragment's bytes, then hands the fragment to the next stage
    after the stage's propagation delay. End-to-end time is therefore
    [sum of latencies + bottleneck-stage serialization], and any contention
    on a shared fluid (e.g. a gateway PCI bus) slows exactly the stage
    that crosses it. *)

type fluid_use = {
  fluid : Fluid.t;
  weight : float;
  rate_cap : float option;
  cls : int;  (** transaction class, see {!Fluid.transfer} *)
}

type stage = {
  label : string;
  use : fluid_use option;  (** bandwidth resource occupied per fragment *)
  per_fragment : Marcel.Time.span;  (** fixed serialized cost per fragment *)
  prop : Marcel.Time.span;  (** pipelined delay before the next stage *)
}

val stage :
  ?use:fluid_use ->
  ?per_fragment:Marcel.Time.span ->
  ?prop:Marcel.Time.span ->
  string ->
  stage

val chain :
  Marcel.Engine.t ->
  stages:stage list ->
  size:('a -> int) ->
  sink:('a -> unit) ->
  'a ->
  unit
(** [chain engine ~stages ~size ~sink] sets up a persistent staged
    pipeline and returns its intake: each fragment fed to it crosses
    [stages] in order ([size] gives its byte count for the fluids) and
    is then passed to [sink]. Fragments never overtake each other.

    The stages are a state machine driven by engine callbacks, not
    threads. Every fragment reaches every instant one thread per stage
    looping on a mailbox would give it, but only the timed steps are
    always engine events: one per stage at creation (its start), one
    per [per_fragment] sleep, the fluid's completion event and one per
    non-zero [prop]. A fragment fed to an idle stage is served inside
    the feeder's action, and a fragment whose fluid crossing completes
    leaves the stage inside the fluid's completion event, unless
    another event is queued at that instant
    ({!Marcel.Engine.pending_now}); then the hand-off is a zero-delay
    event, as a thread's wake-up would be. Feeding never blocks and may
    happen from a thread or an event. [sink] runs in event context, so
    it must not block. {!run} and {!Stream} are built on it. Raises
    [Invalid_argument] if [stages] is empty. *)

val run :
  Marcel.Engine.t -> stages:stage list -> bytes_count:int -> mtu:int -> unit
(** Blocks the calling thread until the last fragment has left the last
    stage. [stages] must be non-empty and [mtu] positive. A zero-byte
    message is carried as a single empty fragment (it still pays the fixed
    costs — that is the latency path). *)
