(** Protocol Management Module for SISCI/SCI (paper §5.2.1).

    Three transmission modules, as in the paper: the optimized
    short-message ring (single-PIO-burst slots, behind the 3.9 us
    latency), the regular ring of 8 kB slots whose depth-2 default is
    the adaptive dual-buffering, and the DMA engine TM — implemented but
    not selected unless {!Config.t.sisci_use_dma}, because the D310 DMA
    tops out at 35 MB/s. Rings live in receiver-owned segments with a
    4-byte length + 4-byte valid-flag header per slot. *)

val seg_id : channel_id:int -> src:int -> kind:int -> int
(** Segment-id naming scheme (kind 0 = short, 1 = regular, 2 = DMA). *)

val select :
  config:Config.t -> len:int -> transit:bool -> Iface.send_mode -> Iface.recv_mode -> int

val driver : (int -> Sisci.t) -> Driver.t
(** [driver adapter_of] builds the PMM over per-rank SISCI adapters. *)
