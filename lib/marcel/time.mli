(** Virtual time for the simulation engine.

    Instants and spans are both counted in integer nanoseconds since the
    start of the simulation. Using integers keeps the engine fully
    deterministic: there is no floating-point drift, and event ordering is a
    total order on [(instant, sequence-number)] pairs.

    Both are immediate native [int]s, not boxed [Int64]s: 63 bits of
    nanoseconds cover ~146 virtual years, and the engine's hot loop
    (clock updates, sleeps, cost computations) stays allocation-free. *)

type t = int
(** An instant, in nanoseconds since simulation start. *)

type span = int
(** A duration, in nanoseconds. Spans are never negative. *)

val zero : t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val add : t -> span -> t
val diff : t -> t -> span
(** [diff later earlier] is [later - earlier]. Raises [Invalid_argument]
    if the result would be negative. *)

val ns : int -> span
val us : float -> span
val ms : float -> span
val s : float -> span

val span_add : span -> span -> span
val span_mul : span -> int -> span
val span_scale : span -> float -> span

val to_ns : t -> int
val to_us : t -> float
val to_s : t -> float

val bytes_at_rate : bytes_count:int -> mb_per_s:float -> span
(** [bytes_at_rate ~bytes_count ~mb_per_s] is the time needed to move
    [bytes_count] bytes at [mb_per_s] MB/s (1 MB = 1e6 bytes, the convention
    used by the paper's bandwidth plots). *)

val rate_mb_s : bytes_count:int -> span -> float
(** [rate_mb_s ~bytes_count span] is the throughput in MB/s achieved by
    moving [bytes_count] bytes in [span]. Raises [Invalid_argument] on a
    zero span. *)

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit (ns, us, ms or s). *)
