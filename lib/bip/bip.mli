(** Simulated BIP: Basic Interface for Parallelism over Myrinet.

    Models the user-level Myrinet interface of Prylli & Tourancheau used by
    the paper (LANai 4.3 era), with its two transmission modes:

    - {b short messages} ([< 1 kB], {!Simnet.Netparams.bip_short_max}):
      stored into preallocated buffers on the receiving side with no
      receiver participation; a credit-based window bounds the number of
      in-flight short messages per connection (credits return when the
      receiver consumes a buffer).
    - {b long messages}: rendezvous — the sender blocks until the receiver
      has posted a matching receive, then the payload is DMA'd directly to
      its final location, with no intermediate copy.

    Matching is FIFO per [(source, tag)] pair, like BIP's tagged receive.
    Raw calibration targets (paper §5.2.2): 5 us one-way latency,
    126 MB/s asymptotic bandwidth. *)

type net
(** A BIP instance over one Myrinet fabric. *)

type t
(** A node endpoint. *)

val make_net : ?credits:int -> Marcel.Engine.t -> Simnet.Fabric.t -> net
(** The fabric must use Myrinet-like link parameters. [credits]
    overrides the short-message send window per connection (default
    {!Simnet.Netparams.bip_short_credits}; must be >= 1) — the
    clusterfile's network-level [credits=] key lands here. *)

val attach : net -> Simnet.Node.t -> t
(** Registers the node on the BIP network. The node must already be
    attached to the underlying fabric. Attaching a node twice is an
    error. *)

val node : t -> Simnet.Node.t
val rank : t -> int
(** Node id of this endpoint. *)

val send : t -> dst:int -> tag:int -> ?off:int -> ?len:int -> Bytes.t -> unit
(** [send t ~dst ~tag ?off ?len buf] sends the [len] bytes of [buf]
    starting at [off] (defaults: the whole buffer). Blocking: returns
    when the slice may be reused — after local injection for short
    messages (credit permitting), after full remote delivery for long
    ones. Either way the slice is snapshotted once, at injection; that
    is the message's only host copy on the send side. Raises
    [Invalid_argument] if [dst] is unknown or equals the sender, or if
    the slice exceeds [buf]. *)

val recv :
  t -> src:int -> tag:int -> ?off:int -> ?len:int -> Bytes.t -> int
(** [recv t ~src ~tag ?off ?len buf] blocks for the next message from
    [src] with [tag], places the payload at [off] in [buf] and returns
    its length. The receive slice is the [len] bytes from [off]
    (defaults: the whole buffer); [len] also selects the short or long
    receive path, so it must be on the same side of the 1 kB threshold
    as the sender's length — both sides of a BIP exchange know which
    mode they are using, as do Madeleine's symmetric pack/unpack
    sequences. Raises [Invalid_argument] if the slice exceeds [buf] or
    is too small for the message (BIP truncation is a programming error
    here, not silent). For short messages this pays the staging copy
    out of the preallocated buffer; long messages land directly in the
    slice, with no intermediate buffer. *)

val probe : t -> src:int -> tag:int -> bool
(** True if a message from [src] with [tag] could be received without
    blocking: a short message is buffered, or a long-message rendezvous
    request is pending. *)

val set_data_hook : t -> (unit -> unit) -> unit
(** [hook] fires whenever new incoming data (a buffered short message or
    a rendezvous request) becomes visible at this endpoint. *)
