(** The deterministic chaos harness.

    Drives fig-4-style ping-pong workloads, gateway-forwarding streams,
    live-topology changes, partitions and collectives through the
    {!Simnet.Faults} plane, verifying that what the reliable transports
    deliver is bit-identical to what was packed, and recording how
    latency and bandwidth degrade under each injected failure (drop
    rates, corruption, link flaps, PCI stalls, gateway crashes,
    restarts, partitions, overload).

    Every workload is one {!workload} entry of the {!workloads}
    registry and returns one {!result} shape: its measurements and its
    gates, nothing else; {!render} derives the text from the
    measurements, so the text and the JSON cannot disagree. Every
    recorded number is
    simulated time or a simulated counter — nothing host-dependent — so
    a result is a pure function of [(seed, quick)]: reruns and
    different worker counts produce byte-identical JSON. *)

type result = {
  fields : (string * Json.t) list;
      (** the measurements, in the order the JSON object lists them *)
  gates : (string * bool) list;
      (** named pass/fail invariants, in order; [madbench chaos] exits
          non-zero naming the ones that failed *)
}

type workload = {
  name : string;  (** the [madbench chaos WORKLOAD] name *)
  doc : string;  (** one-line description, shown by [--help] *)
  run : seed:int -> quick:bool -> result;
      (** [quick] trims the workload to its CI size *)
}

type stream
(** The receiver's record of one verified stream. Each payload is the
    stream's base buffer stamped with its index (the first 4 bytes,
    little-endian), and each delivery is checked for its bytes, its
    position and its count. *)

val stream_state : tag:int -> size:int -> messages:int -> stream
(** A record for [messages] payloads of [size] (at least 4) bytes, the
    base buffer seeded by [tag]. *)

val stream_payload : stream -> int -> Bytes.t
(** [stream_payload s k] is payload [k]: the base buffer stamped with
    [k]. *)

val check_delivery : stream -> Bytes.t -> unit
(** Records one delivery. It is intact and in order if it carries an
    index in range, later than every earlier delivery's, and exactly
    the bytes of that index's payload. *)

val verified : stream -> bool
(** Every delivery intact and in order, every index delivered exactly
    once, and no send failed with [Partitioned]. *)

val stream :
  Marcel.Engine.t ->
  Madeleine.Vchannel.t ->
  tag:int ->
  src:int ->
  dst:int ->
  size:int ->
  messages:int ->
  ?flow:int ->
  ?start:(unit -> bool) ->
  ?pause:int * (unit -> bool) ->
  ?retry:bool ->
  ?on_delivery:(int -> unit) ->
  unit ->
  stream
(** [stream engine vc ~tag ~src ~dst ~size ~messages ()] spawns a
    sender of {!stream_payload}s from [src] to [dst] (on [flow]) and a
    receiver that checks each delivery, and returns the receiver's
    record. Both wait for [start]; [pause] [(k, cond)] holds the sender
    before payload [k] until [cond]. A send that fails with
    [Partitioned] marks the stream and skips the payload, unless
    [retry] keeps retrying it. [on_delivery k] runs in the receiver once
    delivery [k] is checked. *)

val workloads : workload list
(** Every chaos workload, with its parameters. *)

val find : string -> workload option

val run : Parsim.pool -> seed:int -> quick:bool -> (string * result) list
(** Runs the workloads of the full sweep (one job each) and returns
    them, named, in report order. *)

val fingerprints :
  Parsim.pool -> seed:int -> quick:bool -> string list -> string
(** [fingerprints pool ~seed ~quick names] runs the named registry
    workloads (one job each) and lists, in order, the schedule and
    delivery fingerprints ({!Worlds.lines}) of every world each one
    built: one line per world, byte-identical across runs and worker
    counts. A refactor that must not move the simulated schedule leaves
    this text unchanged; one that may move events but not simulated
    instants leaves the [deliveries] and [delivery_fp] fields unchanged.
    Every name must be in {!workloads}. *)

val gates : (string * result) list -> (string * bool) list
(** Every gate of a sweep, in order. *)

val render : string -> result -> string
(** [render name r] is [r] as text: [name:] and every scalar field as
    [key=value] on one line (lists print as [[a,b]], strings unquoted),
    then every table field (a non-empty list of objects) as its key and
    aligned columns beneath. These are exactly the values {!workload_json}
    prints, in the same order. *)

val render_table : seed:int -> quick:bool -> (string * result) list -> string
(** The sweep as text: a header, every result {!render}ed, and the gate
    verdict. *)

val to_json : seed:int -> quick:bool -> (string * result) list -> string
(** The sweep as JSON: one object per workload (keyed by its name with
    dashes turned into underscores), then every gate. *)

val workload_json : seed:int -> string -> result -> string
(** One workload's result as JSON: its fields as ["metrics"], then its
    gates. *)

val clean_path_engines : unit -> Marcel.Engine.t list
(** The finished worlds of the quick chaos ping-pong workload with no
    fault plane attached — the simspeed control guarding the fault-free
    fast path, which reads their event counts and fingerprints. *)

val inert_window_engine : window:int -> Marcel.Engine.t
(** The finished world of a one-way reliable TCP stream (1024 x 4 kB)
    with a fault plane attached but inert — the simspeed control
    guarding the fault-free fast path of the selective-repeat protocol. Run it
    at the default window and at [window:1] (stop-and-wait) to compare
    the window machinery's overhead. *)
