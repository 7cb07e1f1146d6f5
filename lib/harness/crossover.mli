(** Measured eager/rendezvous crossover points.

    `madbench crossover` bisects, per fabric, the message size where
    the zero-copy rendezvous path breaks even with the staged eager
    path, and persists the result in [BENCH_crossover.json]. This
    module reads it back for consumers that want an auto-tuned
    threshold — notably the clusterfile key [rendezvous=auto]. *)

val default_file : string
(** ["BENCH_crossover.json"], resolved against the working directory. *)

val load : ?file:string -> unit -> (string * int) list
(** [(fabric, crossover_bytes)] for every fabric recorded in the file,
    whatever its layout; [[]] if the file does not exist.
    @raise Json.Error naming the file if it is malformed. *)

val lookup : ?file:string -> fabric:string -> unit -> int option
(** The measured crossover for one fabric (e.g. ["sisci"]), if any. *)
