(** The Generic Transmission Module's wire format (paper §6.1).

    Within homogeneous sessions Madeleine messages are not
    self-described; across gateways they must be, because the gateway
    knows nothing of the application's unpack sequence. The Generic TM
    fragments a message into MTU-sized packets and adds two levels of
    description:

    - a {e packet header} on every packet (destination and origin of the
      whole message, payload length, first/last flags) — information
      common to the message travels in the first packet of the paper's
      design; carrying it per-packet keeps gateways stateless here;
    - a {e buffer sub-header} in front of every user buffer in the
      payload stream (length + emission/reception constraint codes),
      which also lets the receiving end validate pack/unpack symmetry. *)

type packet_header = {
  final_dst : int;
  origin : int;
  payload_len : int;
  first : bool;
  last : bool;
  seq : int;
      (** 16-bit end-to-end sequence number per (origin, destination)
          flow, used by reliable vchannels for duplicate suppression.
          0 on unreliable vchannels — the wire encoding is then
          byte-identical to the pre-reliability format. *)
  ack : bool;
      (** Zero-payload cumulative acknowledgment travelling back to
          [final_dst] = the data's origin (reliable vchannels only). *)
  hs : bool;
      (** Session-handshake packet: after a node restarts with a new
          crash epoch, each peer holding a delivery journal for it sends
          an [hs] packet whose [seq] is the sequence number it expects
          next and whose 4-byte payload is the restart epoch (riding as
          genuine payload, so gateways forward it like data). The
          restarted origin resumes numbering at the highest such
          expectation (reliable vchannels only). *)
  crd : bool;
      (** Credit-plane packet for end-to-end flow control (vchannels with
          [credits=] configured). With a 4-byte payload it is a {e grant}:
          the payload is the receiver's cumulative little-endian count of
          consumed data packets on the ([final_dst] ← [origin]) flow.
          With an empty payload it is a {e zero-window probe} from a
          blocked sender; the receiver answers with a fresh grant. Both
          ride the normal forwarding path, so they cross gateways like
          data. Combined with [ack] on reliable vchannels a grant also
          carries a cumulative acknowledgment in [seq]. Never set when
          credits are unconfigured — the wire format is then unchanged. *)
  agg : bool;
      (** Aggregate packet emitted by an aggregating scheduler
          ([sched=aggreg] vchannels): the payload is a train of flow
          frames, each prefixed by a {!flow_frame_header_size}-byte
          sub-header (see {!encode_flow_frame_header}). The outer
          [first]/[last] flags are meaningless ([false]); message
          delimiters travel per frame. Gateways forward aggregates
          without looking inside — only the final destination unpacks
          the train. Never set without a scheduler — the wire format is
          then unchanged. *)
  top : bool;
      (** Topology-control packet for live-topology vchannels (clusterfile
          [version=] set): a join request / join acknowledgment / drain
          notice addressed to the coordinator or to a member (see
          {!Vchannel.join} / {!Vchannel.drain}). The payload carries an
          opcode byte, the subject rank, and the epoch, all little-endian;
          gateways forward it like data. Never set without a live
          topology — the wire format is then unchanged. *)
  col : bool;
      (** Collective-control packet for vchannels with a {!Collectives}
          layer attached: a contribution travelling up a spanning tree
          (possibly already combining several descendants' values), a
          decision travelling down it, or an all-to-all block. The payload
          carries a kind byte, the collective id, the repair generation,
          and the operand bytes, all little-endian; gateways forward it
          like data. Never set without a collectives layer — the wire
          format is then unchanged. *)
}

val header : origin:int -> final_dst:int -> payload_len:int -> packet_header
(** A header with every flag [false] and [seq = 0]; callers set the
    fields that differ with [{ (header ...) with ... }]. *)

val header_size : int
val encode_header : packet_header -> Bytes.t
val decode_header : Bytes.t -> packet_header
(** Raises [Invalid_argument] on a corrupt header. *)

val sub_header_size : int

val encode_sub_header :
  len:int -> Iface.send_mode -> Iface.recv_mode -> Bytes.t

val decode_sub_header : Bytes.t -> int * Iface.send_mode * Iface.recv_mode

(** {1 Flow frames}

    The third level of description, present only inside [agg] packets: a
    {e flow frame header} in front of each constituent sub-packet. It
    carries the 16-bit logical-flow id (multiplexing thousands of logical
    channels over the few physical connections), the frame's payload
    length, and the first/last message delimiters that the outer packet
    header carries for unaggregated traffic. *)

val flow_frame_header_size : int

val encode_flow_frame_header :
  flow:int -> first:bool -> last:bool -> len:int -> Bytes.t
(** Raises [Invalid_argument] when [flow] does not fit in 16 bits. *)

val decode_flow_frame_header : Bytes.t -> int -> int * bool * bool * int
(** [decode_flow_frame_header payload off] reads the frame header at
    byte offset [off] and returns [(flow, first, last, len)]; the frame's
    payload follows at [off + flow_frame_header_size]. Raises
    [Invalid_argument] on a corrupt or truncated header. *)
