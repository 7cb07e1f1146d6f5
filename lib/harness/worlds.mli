(** The engines a run builds, listed for schedule fingerprints.

    Every world the harness constructs ({!Harness} testbeds,
    {!Clusterfile.load}) takes its engine from {!engine}, so
    {!recording} can list the worlds a measurement built and {!lines}
    can print their schedule and delivery fingerprints. *)

val engine : unit -> Marcel.Engine.t
(** A fresh engine, noted by the enclosing {!recording} if any. *)

val recording : (unit -> 'a) -> 'a * Marcel.Engine.t list
(** [recording f] runs [f] and returns its result with every engine
    {!engine} created meanwhile on this domain, in creation order. The
    record is domain-local (a Parsim job runs on one domain) and off
    outside [recording], so an ordinary run keeps no finished world
    alive. *)

val lines : string -> Marcel.Engine.t list -> string
(** [lines label engines]: one line per engine,
    [LABEL world I: events N fingerprint F deliveries D delivery_fp H],
    with {!Marcel.Engine.events_processed}, {!Marcel.Engine.fingerprint},
    {!Marcel.Engine.deliveries} and {!Marcel.Engine.delivery_fingerprint}. *)
