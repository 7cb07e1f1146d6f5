(** Simulator throughput: host events per wall-clock second over a fixed
    set of scenarios, and the gates that compare a run with a committed
    baseline ([BENCH_simspeed.json]). Run by [madbench simspeed]. *)

type row = {
  scenario : string;
  events : int;
  fingerprint : int;
      (** combined {!Marcel.Engine.fingerprint} of the scenario's worlds *)
  delivery_fp : int;
      (** combined {!Marcel.Engine.delivery_fingerprint} of its worlds *)
  events_per_s : float;
}
(** One scenario of a run or of a baseline. *)

val read_baseline : string -> row list
(** The scenarios recorded in a simspeed JSON file, whatever its layout.
    @raise Json.Error naming the file if it is malformed. *)

val check_baseline : baseline:row list -> row list -> (string * bool) list
(** One verdict line per measured row, with its outcome. A row fails
    if its event count, its schedule fingerprint or its delivery
    fingerprint differs from the baseline's (all replay a deterministic
    schedule, so any difference means the simulation changed) or if its events/s falls below 80% of
    the baseline's. A
    scenario the baseline lacks passes with a warning, but if the
    baseline holds none of the measured scenarios (an empty one
    included) a final failing line is added: nothing was compared. *)

val run : json:bool -> baseline:string option -> bool
(** Measures every scenario (best of 6 runs) and prints the results. The
    pooled parallel-sweep scenario runs on up to 4 domains, capped at
    the host's core count. [json] writes [BENCH_simspeed.json] in the
    working directory. With a [baseline] file, read before anything is
    written, every gate is printed: {!check_baseline}, the parallel
    speedup floor, and the simulated aggregation-goodput and zero-copy
    floors. Returns [false] if a gate failed or the baseline is
    malformed. *)
