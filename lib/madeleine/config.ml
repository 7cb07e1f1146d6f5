type rx_interaction =
  | Rx_poll
  | Rx_interrupt
  | Rx_adaptive of Marcel.Time.span

type t = {
  checked : bool;
  aggregation : bool;
  sisci_ring_slots : int;
  sisci_use_dma : bool;
  sisci_slot_payload : int;
  sisci_dma_threshold : int;
  rendezvous_threshold : int option;
  regcache_entries : int;
  regcache_bytes : int option;
  rx_interaction : rx_interaction;
  tcp_connect_timeout : Marcel.Time.span option;
}

exception Symmetry_violation of string
exception Peer_unreachable of string
exception Partitioned of string

let default_sisci_slot_payload = 8192
let default_sisci_dma_threshold = 16 * 1024
let default_regcache_entries = 8

let default =
  {
    checked = true;
    aggregation = true;
    sisci_ring_slots = 2;
    sisci_use_dma = false;
    sisci_slot_payload = default_sisci_slot_payload;
    sisci_dma_threshold = default_sisci_dma_threshold;
    rendezvous_threshold = None;
    regcache_entries = default_regcache_entries;
    regcache_bytes = None;
    rx_interaction = Rx_poll;
    tcp_connect_timeout = None;
  }

module Time = Marcel.Time

let pack_overhead = Time.us 0.45
let unpack_overhead = Time.us 0.3
let begin_overhead = Time.us 0.55
let end_overhead = Time.us 0.5

let sisci_short_max = 480
let sisci_short_slots = 16
let default_adaptive_window = Time.us 30.0
let slot_header = 8

let bip_short_payload = Simnet.Netparams.bip_short_max - 1
let via_slot_payload = Simnet.Netparams.via_descriptor_max
let sbp_slot_payload = Simnet.Netparams.sbp_buffer_size
let via_posted_descriptors = 8

let default_vchannel_mtu = 16 * 1024
let gateway_packet_overhead = Time.us 50.0
let default_route_patience = Time.ms 25.0
let packet_header_size = 16
let buffer_header_size = 8
let default_gateway_pool = 2
let default_unacked_window = 256
let credit_probe_interval = Time.ms 1.0
let credit_probe_max_interval = Time.ms 64.0
let overload_hold = Time.us 250.0
let default_aggr_flush = Time.us 50.0
