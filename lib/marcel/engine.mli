(** Discrete-event engine with cooperative user-level threads.

    This is the *Marcel* substrate of the reproduction: the paper's systems
    run on the PM2 user-level thread library of the same name; here the
    threads double as discrete-event simulation processes. A thread runs
    until it performs a blocking operation ([sleep], [suspend] or one of the
    {!Mutex}/{!Condition}/{!Semaphore}/{!Mailbox}/{!Ivar} primitives built
    on them); the engine then advances the virtual clock to the next pending
    event. Execution is single-threaded and fully deterministic.

    {b World-isolation invariant:} an engine — and every simulation
    object hanging off it (nodes, fabrics, channels, buffer pools) —
    belongs to the domain that created it. Nothing in the engine is
    synchronized, so the entry points ({!spawn}, {!at}, {!run},
    {!run_until}) raise [Invalid_argument] when called from any other
    domain. Parallel sweeps (see {!Parsim} and docs/MODEL.md, "Parallel
    sweeps and the world-isolation invariant") therefore construct, run
    and tear down each world entirely inside one worker domain. *)

type t

exception Stalled of string list
(** Raised by {!run} when no events remain but some non-daemon threads are
    still blocked: a genuine protocol deadlock. The payload lists the
    blocked threads' names. *)

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val pending_now : t -> bool
(** Whether an event queued at the current instant would run before a
    zero-delay event scheduled now. Work that a thread model resumes
    with such an event (a same-instant hand-off) may run inline instead
    only when this is false: otherwise the queued event must still run
    first, so the hand-off stays an event. Inside {!batch} the events
    the batch itself scheduled do not count. *)

val batch : t -> (unit -> unit) -> unit
(** [batch t f] runs [f], whose same-instant hand-offs a thread model
    would schedule together, as consecutive zero-delay events, before
    any of them runs (the transfers one fluid completion finishes).
    While [f] runs, {!pending_now} ignores the events [f] schedules:
    they would follow the whole batch. Nested batches count as the
    outermost one. *)

val events_processed : t -> int
(** Total events executed so far — thread resumptions, timer callbacks;
    the discrete-event engine's unit of work, for simulator-throughput
    reporting. *)

val fingerprint : t -> int
(** Running hash of the [(time, seq)] key of every event executed so
    far, in execution order. Two runs with equal fingerprints (and
    equal {!events_processed}) executed the same schedule; a host-side
    change that moves, adds or drops a single event changes it. *)

val note_delivery : t -> src:int -> dst:int -> bytes:int -> unit
(** Records that a message of [bytes] bytes from rank [src] was handed
    to the application at rank [dst] at the current instant. Called by
    the receive paths that complete a message ([Madeleine.Api] and
    [Madeleine.Vchannel] [end_unpacking], [Tcpnet.recv], [Bip.recv],
    MPI receive completion). *)

val deliveries : t -> int
(** Messages recorded by {!note_delivery} so far. *)

val delivery_fingerprint : t -> int
(** Running FNV-1a hash of the [(time, src, dst, bytes)] of every
    delivery recorded so far, in order. Unlike {!fingerprint} it does
    not see how many events a delivery took: two runs with equal
    delivery fingerprints handed the same messages to the application
    at the same instants in the same order, even if their schedules
    differ event for event. *)

val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
(** [spawn t ~name f] creates a thread running [f]. The thread starts at
    the current virtual instant, after already-scheduled events. A
    [daemon] thread (default [false]) is allowed to still be blocked when
    the event queue drains; use it for server loops that never
    terminate. An exception escaping [f] aborts the whole run: {!run}
    re-raises it. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t instant f] schedules the raw callback [f] at [instant] (which
    must not be in the past). [f] must not block. *)

val run : t -> unit
(** Runs until the event queue is empty. Re-raises the first exception
    escaping any thread. Raises {!Stalled} if non-daemon threads remain
    blocked at quiescence. *)

val run_until : t -> Time.t -> unit
(** Runs events up to and including [deadline], leaving later events
    queued and advancing the clock to exactly [deadline]. Never raises
    {!Stalled} (the simulation may legitimately continue); useful for
    bounded executions and inspecting in-flight state. *)

(** {1 Operations usable only inside a thread body} *)

val sleep : Time.span -> unit
(** Advances this thread's virtual time by the given span. *)

val suspend : name:string -> (('a -> unit) -> unit) -> 'a
(** [suspend ~name register] blocks the current thread. [register] is
    called immediately with a [wake] function; storing [wake] somewhere
    and calling it later (with the value to return from [suspend]) resumes
    the thread at the *caller's* current virtual instant. Calling [wake]
    more than once is ignored. [name] labels what the thread is blocked
    on, for {!Stalled} reports. *)

val self_name : unit -> string
(** Name of the current thread (as given to [spawn]). *)
