(** Protocol Management Module for BIP/Myrinet (paper §5.2.2).

    Two transmission modules mirror BIP's modes: TM 0 aggregates small
    packets into one credit-controlled BIP short message (static
    buffers); TM 1 carries large packets through the zero-copy
    receiver-acknowledged rendezvous (dynamic buffers). The Switch
    routes at BIP's 1 kB threshold. *)

val driver : (int -> Bip.t) -> Driver.t
(** [driver endpoint_of] builds the PMM over the given per-rank BIP
    endpoints (ranks are node ids). *)
