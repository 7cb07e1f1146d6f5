(** Parallel sweep engine: a fixed pool of OCaml 5 domains executing
    independent simulation {e jobs} with deterministic, submission-ordered
    collection.

    A job is a closure that constructs, runs and tears down one complete
    simulation world (its own {!Marcel.Engine.t}, network models, buffer
    pools and RNG streams). Jobs must be {e isolated}: they may not touch
    an engine, node, channel or any other world object created outside the
    job, and they must not print — they return a value (rows, stats) that
    the collector emits in submission order, so a parallel run's output is
    byte-identical to a serial run's. See docs/MODEL.md, "Parallel sweeps
    and the world-isolation invariant".

    Scheduling is one shared claim index per batch: every worker, the
    calling domain included, takes the next unclaimed job (last-submitted
    first) with an atomic fetch-and-add until the batch is exhausted, so
    each job runs exactly once and early finishers pick up the slack.
    The worker domains persist across batches. Determinism never depends
    on the schedule — only the collection order is guaranteed. *)

type pool
(** A fixed-size pool. [jobs = n] means [n] workers execute jobs: the
    calling domain plus [n - 1] spawned domains. A pool with [jobs = 1]
    spawns no domains and {!run} degenerates to [List.map] — exactly the
    serial path. *)

val create : jobs:int -> pool
(** Spawns [jobs - 1] worker domains. [jobs] must be at least 1.

    @raise Invalid_argument if [jobs < 1]. *)

val shutdown : pool -> unit
(** Terminates and joins the worker domains. Idempotent. Calling {!run}
    after [shutdown] raises [Invalid_argument]. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val run : pool -> (string * (unit -> 'a)) list -> 'a list
(** [run pool jobs] executes every [(label, thunk)] job and returns the
    thunk results {e in submission order}, regardless of which worker ran
    which job or in what order they finished.

    If thunks raise, the whole batch still runs to completion, then the
    exception of the {e earliest-submitted} failing job is re-raised (with
    its original backtrace) — again independent of scheduling. Labels
    identify jobs in diagnostics; they do not affect execution.

    [run] may be called repeatedly on one pool but is not reentrant: a
    job must not call [run] on the pool executing it (workers would be
    consumed waiting and the batch could deadlock). *)
