module Time = Marcel.Time

(* PCI: 33 MHz x 4 bytes = 132 MB/s raw. The 0.76 contention factor is
   calibrated so a full-duplex forwarding gateway tops out near the
   49.5 MB/s per direction observed in Fig. 10 (2 x 49.5 / 132 = 0.75). *)
let pci_capacity_mb_s = 132.0
let pci_contention_factor = 0.76

(* When CPU PIO stores interleave with NIC-mastered DMA on the same bus,
   write-combining bursts break up and arbitration turnaround dominates:
   the effective capacity drops much further than in the NIC-vs-NIC case.
   Calibrated from the paper's Fig. 11 ("sending over SCI is slowed down
   by a factor of two" while the Myrinet board receives). *)
let pci_mixed_contention_factor = 0.55
let pci_weight_pio = 1.0
let pci_weight_dma = 2.0
let pci_pio_rate_cap_mb_s = 84.0
let pci_dma_rate_cap_mb_s = 127.0

type link = { wire_lat : Time.span; wire_bw_mb_s : float; hw_mtu : int }

(* Myrinet (LANai 4.3): 1.28 Gbit/s links = 160 MB/s; sub-microsecond
   switch. BIP's asymptotic 126 MB/s is the PCI DMA bottleneck, not the
   wire. *)
let myrinet = { wire_lat = Time.us 0.9; wire_bw_mb_s = 160.0; hw_mtu = 4096 }

(* Dolphin D310 SCI: 500 MB/s ring links, very low latency; the effective
   bottleneck is the PIO write path through the PCI bridge. SCI moves data
   in small ring packets, so pipeline stages overlap at fine grain. *)
let sci = { wire_lat = Time.us 0.35; wire_bw_mb_s = 400.0; hw_mtu = 512 }

(* Fast Ethernet: 100 Mbit/s = 12.5 MB/s; latency dominated by the kernel
   network stack of Linux 2.2, accounted in tcp_{send,recv}_overhead. *)
let fast_ethernet =
  { wire_lat = Time.us 5.0; wire_bw_mb_s = 12.5; hw_mtu = 1460 }

(* BIP raw short-message latency is 5 us one-way; we split it between
   sender software, wire and receiver software. *)
let bip_send_overhead = Time.us 2.0
let bip_recv_overhead = Time.us 2.0
let bip_short_max = 1024
let bip_short_credits = 16
let bip_rendezvous_overhead = Time.us 3.0
let bip_copy_rate_mb_s = 180.0

(* SISCI: a PIO store sequence plus barrier costs well under a
   microsecond; receiver polls a flag word. Raw one-way latency for a
   small write lands near 2.5 us, leaving Madeleine's short-message TM
   the headroom to reach its published 3.9 us. *)
let sisci_pio_overhead = Time.us 0.55
let sisci_poll_overhead = Time.us 0.75
let sisci_dma_setup = Time.us 4.0
let sisci_dma_rate_cap_mb_s = 35.0

(* Linux 2.2 TCP stack: tens of microseconds per end. *)
let tcp_send_overhead = Time.us 28.0
let tcp_recv_overhead = Time.us 28.0
let tcp_rate_cap_mb_s = 11.5

let via_doorbell_overhead = Time.us 2.2
let via_completion_overhead = Time.us 1.8
let via_descriptor_max = 32 * 1024

let sbp_trap_overhead = Time.us 6.0
let sbp_buffer_size = 8192

(* PII-450 with 100 MHz SDRAM: sustained memcpy around 160 MB/s. *)
let memcpy_rate_mb_s = 160.0

(* Buffer registration (pin-down) for zero-copy RDMA: one syscall-ish
   fixed entry (mlock + translation setup) plus a per-page walk to pin
   and translate each 4 kB page. Deregistration only unpins, no
   translation rebuild, so it is cheaper. Numbers follow the published
   VIA/InfiniBand registration microbenchmarks of the era (tens of us
   for the first page, fractions of a us per page after). *)
let page_size = 4096
let reg_base = Time.us 10.0
let reg_per_page = Time.us 0.25
let dereg_base = Time.us 4.0
let dereg_per_page = Time.us 0.1

(* Busmaster RDMA engine reading pinned user pages: long aligned bursts
   on the PCI bus, so it approaches the raw DMA ceiling instead of the
   D310's descriptor-per-block 35 MB/s staging engine. *)
let sisci_rdma_rate_cap_mb_s = pci_dma_rate_cap_mb_s

(* Cost of taking a NIC interrupt and rescheduling the blocked thread
   (kernel entry, handler, wakeup) on Linux 2.2 — an order of magnitude
   above the polling detection cost, which is the whole trade-off the
   paper's planned adaptive polling/interrupt mechanism (§7) navigates. *)
let interrupt_latency = Time.us 12.0
