(** Shared simulated testbeds and the paper's measurement methodology.

    Both the integration/property tests and the benchmark harness build
    their worlds here: two-node single-network clusters for the §5
    micro-benchmarks, the §6.2 two-cluster + gateway configuration, and
    the MPI/Nexus stacks of §5.3. All measurements follow the paper's
    §5 method, written once as two traffic drivers: {!pingpong} (the
    one-way time is the averaged round trip halved) and {!one_way} (a
    transfer timed to its last receive). The harness's measurements,
    the chaos streams and the bench's ablations run on them, except the
    Nexus echo (its reply runs in an RSR handler, not a thread) and the
    N-to-1 shapes; the single-field send/receive helpers are their
    usual closures. *)

val payload : int -> int64 -> Bytes.t
(** Deterministic pseudo-random payload (seeded). *)

(** {1 The §5 traffic skeleton} *)

val pingpong :
  Marcel.Engine.t ->
  iters:int ->
  ping:(unit -> unit) ->
  pong:(unit -> unit) ->
  Marcel.Time.span
(** [pingpong engine ~iters ~ping ~pong] spawns a thread ["ping"] and
    then a thread ["pong"]. ["ping"] records the start instant, runs
    [ping ()] [iters] times and records the end instant; ["pong"] runs
    [pong ()] [iters] times. It runs the engine and returns
    (end − start) / (2 · [iters]), the one-way time. Raises
    [Invalid_argument] when [iters < 1]. *)

val spawn_one_way :
  Marcel.Engine.t ->
  messages:int ->
  send:(int -> unit) ->
  recv:(int -> unit) ->
  unit
(** [spawn_one_way engine ~messages ~send ~recv] spawns a sender running
    [send k] and then a receiver running [recv k], for k = 0 …
    [messages] − 1, without running the engine: several pairs (or other
    threads) can share one world. *)

val one_way :
  Marcel.Engine.t ->
  messages:int ->
  send:(int -> unit) ->
  recv:(int -> unit) ->
  Marcel.Time.t
(** {!spawn_one_way}, then runs the engine and returns the instant of the
    last receive. In a world whose engine has not run yet, the sender
    starts at instant zero, so that instant is also the transfer's
    span. *)

val mad_send : Madeleine.Channel.endpoint -> remote:int -> Bytes.t -> unit
(** One message of one field from a channel endpoint: begin, pack with
    the default modes, end. *)

val mad_recv : Madeleine.Channel.endpoint -> remote:int -> Bytes.t -> unit
(** One message of one field from [remote], unpacked into the buffer
    with the default modes. *)

val vc_send :
  Madeleine.Vchannel.t -> me:int -> remote:int -> Bytes.t -> unit
(** {!mad_send} over a virtual channel, from rank [me]. *)

val vc_recv :
  ?flow:int -> Madeleine.Vchannel.t -> me:int -> remote:int -> Bytes.t -> unit
(** {!mad_recv} over a virtual channel, at rank [me], on [flow]. *)

(** {1 Single-network Madeleine worlds} *)

type world = {
  engine : Marcel.Engine.t;
  session : Madeleine.Session.t;
  channel : Madeleine.Channel.t;
}

val make_world :
  ?config:Madeleine.Config.t ->
  n:int ->
  (Marcel.Engine.t -> Simnet.Fabric.t -> Simnet.Node.t list -> Madeleine.Driver.t) ->
  Simnet.Netparams.link ->
  world
(** [n] nodes on one fabric, one channel over the driver the callback
    builds. *)

val bip_driver :
  Marcel.Engine.t -> Simnet.Fabric.t -> Simnet.Node.t list -> Madeleine.Driver.t
(** [Clusterfile.driver "bip"]. *)

val sisci_driver :
  Marcel.Engine.t -> Simnet.Fabric.t -> Simnet.Node.t list -> Madeleine.Driver.t
(** [Clusterfile.driver "sisci"]. *)

val bip_world : ?config:Madeleine.Config.t -> unit -> world
(** Two nodes on Myrinet with BIP; the other four are the same pair on
    their kind's {!Clusterfile.link}. *)

val sisci_world : ?config:Madeleine.Config.t -> unit -> world
val tcp_world : ?config:Madeleine.Config.t -> unit -> world
val via_world : ?config:Madeleine.Config.t -> unit -> world
val sbp_world : ?config:Madeleine.Config.t -> unit -> world

val mad_pingpong : world -> bytes_count:int -> iters:int -> Marcel.Time.span
(** One-way time of a Madeleine ping-pong between ranks 0 and 1. *)

val raw_bip_pingpong : bytes_count:int -> iters:int -> Marcel.Time.span
(** The Fig. 5 baseline: raw BIP without Madeleine. *)

(** {1 The §6.2 two-cluster testbed} *)

type cluster_world = {
  cw_engine : Marcel.Engine.t;
  cw_session : Madeleine.Session.t;
  cw_gateway : Simnet.Node.t;
  ch_sci : Madeleine.Channel.t;
  ch_myri : Madeleine.Channel.t;
}

val two_cluster_world : ?config:Madeleine.Config.t -> unit -> cluster_world
(** Node 0 on SCI, node 2 on Myrinet, node 1 the gateway with both NICs. *)

val forwarding_bandwidth :
  ?gateway_overhead:Marcel.Time.span ->
  ?extra_gateway_copy:bool ->
  ?ingress_cap_mb_s:float ->
  mtu:int ->
  src:int ->
  dst:int ->
  bytes_count:int ->
  unit ->
  float
(** One-way inter-cluster bandwidth (MB/s) through the gateway for one
    Generic-TM packet size — the Figs. 10/11 measurement. *)

val forwarding_run :
  ?gateway_overhead:Marcel.Time.span ->
  ?extra_gateway_copy:bool ->
  ?ingress_cap_mb_s:float ->
  mtu:int ->
  src:int ->
  dst:int ->
  bytes_count:int ->
  unit ->
  float * float
(** Like {!forwarding_bandwidth} but also returns the gateway's PCI
    utilization over the run — the bus-saturation evidence behind the
    paper's §6.2.2 analysis. *)

val message_sizes : int list
(** The standard sweep used by the figures. *)

(** {1 MPI worlds (Fig. 6)} *)

type mpi_device_kind =
  | Chmad
  | Scidirect of Mpilite.Dev_scidirect.profile

type mpi_world = {
  mpi_engine : Marcel.Engine.t;
  mpi_world : Mpilite.Mpi.world;
}

val make_mpi_world : n:int -> mpi_device_kind -> mpi_world
(** [n] ranks over SCI with the chosen MPI device. *)

val mpi_pingpong :
  mpi_device_kind -> bytes_count:int -> iters:int -> Marcel.Time.span

(** {1 Nexus worlds (Fig. 7)} *)

type nexus_proto = Nexus_mad_sisci | Nexus_mad_tcp

type nexus_world = { nx_engine : Marcel.Engine.t; nx_world : Nexus.world }

val make_nexus_world : n:int -> nexus_proto -> nexus_world

val nexus_roundtrip :
  nexus_proto -> bytes_count:int -> iters:int -> Marcel.Time.span
(** One-way time of an RSR echo (client fires handler 0 at a server
    whose handler echoes the payload back). *)
