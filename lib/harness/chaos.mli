(** The deterministic chaos harness.

    Drives fig-4-style ping-pong workloads, gateway-forwarding streams,
    live-topology changes, partitions and collectives through the
    {!Simnet.Faults} plane, verifying that what the reliable transports
    deliver is bit-identical to what was packed, and recording how
    latency and bandwidth degrade under each injected failure (drop
    rates, corruption, link flaps, PCI stalls, gateway crashes,
    restarts, partitions, overload).

    Every workload is one {!workload} entry of the {!workloads}
    registry and returns one {!result} shape. Every recorded number is
    simulated time or a simulated counter — nothing host-dependent — so
    a result is a pure function of [(seed, quick)]: reruns and
    different worker counts produce byte-identical JSON. *)

type result = {
  fields : (string * Json.t) list;
      (** the measurements, in the order the JSON object lists them *)
  line : string;
      (** the human rendering (newline terminated; tabular workloads
          span several lines) *)
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

val workloads : workload list
(** Every chaos workload, with its parameters. *)

val find : string -> workload option

val sweep : string list
(** The registry names of the full sweep, in report order. *)

val run : Parsim.pool -> seed:int -> quick:bool -> (string * result) list
(** Runs the {!sweep} workloads (one job each) and returns them, named,
    in sweep order. *)

val gates : (string * result) list -> (string * bool) list
(** Every gate of a sweep, in order. *)

val render_table : seed:int -> quick:bool -> (string * result) list -> string
(** The sweep as text: a header, every result's line, and the gate
    verdict. *)

val to_json : seed:int -> quick:bool -> (string * result) list -> string
(** The sweep as JSON: one object per workload (keyed by its name with
    dashes turned into underscores), then every gate. *)

val workload_json : seed:int -> string -> result -> string
(** One workload's result as JSON: its fields as ["metrics"], then its
    gates. *)

val clean_path_events : unit -> int
(** Host events processed by the quick chaos ping-pong workload with no
    fault plane attached — the simspeed control guarding the fault-free
    fast path. *)

val inert_window_events : window:int -> int
(** Host events processed by a one-way reliable TCP stream (256 x 4 kB)
    with a fault plane attached but inert — the simspeed control
    guarding the fault-free fast path of the go-back-N protocol. Run it
    at the default window and at [window:1] (stop-and-wait) to compare
    the window machinery's overhead. *)
