module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Pipeline = Simnet.Pipeline

type local_segment = {
  owner : t;
  seg_id : int;
  mem : Bytes.t;
  mutable waiters : (unit -> unit) list;
  mutable data_hooks : (unit -> unit) list;
}

and remote_segment = { local_end : t; remote : local_segment }

and t = {
  net : net;
  adapter_node : Node.t;
  segments : (int, local_segment) Hashtbl.t;
  mutable polled : Time.span;
}

and net = {
  engine : Engine.t;
  fabric : Fabric.t;
  adapters : (int, t) Hashtbl.t;
  streams : (int * int, Simnet.Stream.t) Hashtbl.t;
  mutable spool : Bytes.t list; (* recycled write-snapshot buffers *)
}

let make_net engine fabric =
  {
    engine;
    fabric;
    adapters = Hashtbl.create 16;
    streams = Hashtbl.create 16;
    spool = [];
  }

let attach net node =
  if Hashtbl.mem net.adapters node.Node.id then
    invalid_arg "Sisci.attach: node already attached";
  if not (Fabric.attached net.fabric node) then
    invalid_arg "Sisci.attach: node not on the fabric";
  let t =
    { net; adapter_node = node; segments = Hashtbl.create 16; polled = 0 }
  in
  Hashtbl.add net.adapters node.Node.id t;
  t

let node t = t.adapter_node

let create_segment t ~segment_id ~size =
  if Hashtbl.mem t.segments segment_id then
    invalid_arg "Sisci.create_segment: id in use";
  if size <= 0 then invalid_arg "Sisci.create_segment: size <= 0";
  let seg =
    {
      owner = t;
      seg_id = segment_id;
      mem = Bytes.make size '\000';
      waiters = [];
      data_hooks = [];
    }
  in
  Hashtbl.add t.segments segment_id seg;
  seg

let connect t ~node_id ~segment_id =
  match Hashtbl.find_opt t.net.adapters node_id with
  | None -> raise Not_found
  | Some peer -> (
      match Hashtbl.find_opt peer.segments segment_id with
      | None -> raise Not_found
      | Some seg -> { local_end = t; remote = seg })

let check_bounds mem ~off ~len op =
  if off < 0 || len < 0 || off > Bytes.length mem - len then
    invalid_arg (op ^ ": out of segment bounds")

(* Posted writes snapshot their payload so the sender may reuse its
   staging buffer immediately; the snapshots are recycled through a
   free list once delivered, so steady-state traffic allocates nothing
   on the major heap. Exact-size matching keeps a byte pool per frame
   geometry (slot frames, rendezvous bodies) without waste. *)
let spool_get net len =
  let rec go acc = function
    | [] -> Bytes.create len
    | b :: rest ->
        if Bytes.length b = len then begin
          net.spool <- List.rev_append acc rest;
          b
        end
        else go (b :: acc) rest
  in
  go [] net.spool

let spool_put net b = net.spool <- b :: net.spool

(* Deliver the payload into the remote segment and re-arm every poller. *)
let commit_blit rs ~off src ~pos ~len =
  let seg = rs.remote in
  Bytes.blit src pos seg.mem off len;
  let waiters = seg.waiters in
  seg.waiters <- [];
  List.iter (fun wake -> wake ()) waiters;
  List.iter (fun hook -> hook ()) seg.data_hooks

let commit_write rs ~off data =
  commit_blit rs ~off data ~pos:0 ~len:(Bytes.length data)

let set_data_hook seg hook = seg.data_hooks <- hook :: seg.data_hooks

let wire_use fluid = { Pipeline.fluid; weight = 1.0; rate_cap = None; cls = 0 }

(* Writes cross the local PCI bus and enter the SCI stream by packet. *)
let grain net = (Fabric.link net.fabric).Netparams.hw_mtu

(* The SCI stream between two adapters: a persistent FIFO pipeline
   carrying posted writes from the sender's NIC to the receiver's memory
   (TX link -> ring -> RX link -> receiver PCI as busmaster writes).
   One stream per directed pair keeps SCI's in-order delivery. *)
let stream rs =
  let net = rs.local_end.net in
  let src = rs.local_end.adapter_node and dst = rs.remote.owner.adapter_node in
  let key = (src.Node.id, dst.Node.id) in
  match Hashtbl.find_opt net.streams key with
  | Some st -> st
  | None ->
      let link = Fabric.link net.fabric in
      let st =
        Simnet.Stream.create net.engine
          ~stages:
            [
              Pipeline.stage
                ~use:(wire_use (Fabric.tx net.fabric src))
                ~prop:link.Netparams.wire_lat "sci-tx";
              Pipeline.stage ~use:(wire_use (Fabric.rx net.fabric dst)) "sci-rx";
              Pipeline.stage ~use:(Simnet.Xfer.pci_use dst Simnet.Xfer.Dma)
                "dst-pci";
            ]
          ~mtu:link.Netparams.hw_mtu
      in
      Hashtbl.add net.streams key st;
      st

(* Both write paths return once the data has been pulled through the
   local PCI bus (posted writes / completed DMA descriptor reads); the
   SCI stream delivers to remote memory asynchronously, in order. The
   snapshot for the asynchronous delivery doubles as the only host copy:
   callers may hand a sub-range of a reusable staging buffer. *)
let remote_write rs ~off data ~pos ~len ~src_use ~setup =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Sisci.remote_write: bad source range";
  check_bounds rs.remote.mem ~off ~len "Sisci.pio_write";
  Engine.sleep setup;
  let net = rs.local_end.net in
  let staged = spool_get net len in
  Bytes.blit data pos staged 0 len;
  let st = stream rs in
  let deliver () =
    commit_write rs ~off staged;
    spool_put net staged
  in
  (* Interleave the local PCI crossing with stream injection at packet
     grain: SCI forwards data as the bridge emits it, so remote delivery
     overlaps the issuing CPU's stores instead of trailing them. *)
  if len = 0 then Simnet.Stream.push st ~bytes_count:0 ~on_delivered:deliver
  else
    Engine.suspend ~name:"sisci.write" (fun wake ->
        Simnet.Stream.inject st ~use:src_use ~grain:(grain net)
          ~bytes_count:len ~on_crossed:wake ~on_delivered:deliver)

let pio_use rs = Simnet.Xfer.pci_use rs.local_end.adapter_node Simnet.Xfer.Pio

let dma_use rs =
  {
    Pipeline.fluid = rs.local_end.adapter_node.Node.pci;
    weight = Netparams.pci_weight_dma;
    rate_cap = Some Netparams.sisci_dma_rate_cap_mb_s;
    cls = 0;
  }

let pio_write rs ~off data =
  remote_write rs ~off data ~pos:0 ~len:(Bytes.length data) ~src_use:(pio_use rs)
    ~setup:Netparams.sisci_pio_overhead

let pio_write_sub rs ~off data ~pos ~len =
  remote_write rs ~off data ~pos ~len ~src_use:(pio_use rs)
    ~setup:Netparams.sisci_pio_overhead

let dma_write rs ~off data =
  remote_write rs ~off data ~pos:0 ~len:(Bytes.length data)
    ~src_use:(dma_use rs) ~setup:Netparams.sisci_dma_setup

let dma_write_sub rs ~off data ~pos ~len =
  remote_write rs ~off data ~pos ~len ~src_use:(dma_use rs)
    ~setup:Netparams.sisci_dma_setup

(* --- Zero-copy RDMA: registered user buffers -------------------------- *)

(* A registered (pinned) interval of a user buffer. Registration is a
   costed operation ({!Simnet.Cost.pin}): the pages are locked and their
   bus translations installed so the busmaster engine can read them
   directly, with no staging blit. Positions in the region are absolute
   offsets into the underlying buffer. *)
type region = {
  r_adapter : t;
  r_mem : Bytes.t;
  r_pos : int;
  r_len : int;
  mutable r_active : bool;
}

let register t data ~pos ~len =
  if pos < 0 || len <= 0 || pos > Bytes.length data - len then
    invalid_arg "Sisci.register: bad range";
  Simnet.Cost.pin len;
  { r_adapter = t; r_mem = data; r_pos = pos; r_len = len; r_active = true }

let deregister r =
  if not r.r_active then invalid_arg "Sisci.deregister: already deregistered";
  r.r_active <- false;
  Simnet.Cost.unpin r.r_len

(* Expose a registered region as a connectable segment: the receiver side
   of a rendezvous registers its user buffer and hands the (id, offset)
   pair to the sender, whose RDMA write then lands directly in user
   memory. Free beyond the pin already charged by {!register}: exposure
   is a table insert, not a data movement. *)
let expose_region t ~segment_id r =
  if not r.r_active then invalid_arg "Sisci.expose_region: inactive region";
  if r.r_adapter != t then invalid_arg "Sisci.expose_region: wrong adapter";
  if Hashtbl.mem t.segments segment_id then
    invalid_arg "Sisci.expose_region: id in use";
  let seg =
    { owner = t; seg_id = segment_id; mem = r.r_mem; waiters = []; data_hooks = [] }
  in
  Hashtbl.add t.segments segment_id seg;
  seg

let retract_segment seg = Hashtbl.remove seg.owner.segments seg.seg_id

let rdma_use rs =
  {
    Pipeline.fluid = rs.local_end.adapter_node.Node.pci;
    weight = Netparams.pci_weight_dma;
    rate_cap = Some Netparams.sisci_rdma_rate_cap_mb_s;
    cls = 0;
  }

(* Single-descriptor busmaster write straight from the pinned user
   buffer: no spool snapshot, no staging copy on either host. Because
   there is no snapshot, the transfer reads the live user pages —
   so unlike the posted staged writes, this one blocks the caller until
   the data has landed in the remote segment: only then may the source
   range be modified or unpinned (real zero-copy has the same rule;
   its local completion means "the NIC read the pages", which the
   in-order SCI stream converts to remote delivery). *)
let rdma_write_direct rs ~off region ~pos ~len =
  if not region.r_active then
    invalid_arg "Sisci.rdma_write_direct: inactive region";
  if
    pos < region.r_pos || len <= 0 || pos - region.r_pos > region.r_len - len
  then invalid_arg "Sisci.rdma_write_direct: range outside region";
  check_bounds rs.remote.mem ~off ~len "Sisci.rdma_write_direct";
  Engine.sleep Netparams.sisci_dma_setup;
  let st = stream rs in
  Engine.suspend ~name:"sisci.rdma" (fun wake ->
      Simnet.Stream.inject st ~use:(rdma_use rs) ~grain:(grain rs.local_end.net)
        ~bytes_count:len ~on_crossed:ignore ~on_delivered:(fun () ->
          commit_blit rs ~off region.r_mem ~pos ~len;
          wake ()))

let read seg ~off ~len =
  check_bounds seg.mem ~off ~len "Sisci.read";
  Bytes.sub seg.mem off len

let get seg ~off =
  check_bounds seg.mem ~off ~len:1 "Sisci.get";
  Bytes.unsafe_get seg.mem off

let get_int32_le seg ~off =
  check_bounds seg.mem ~off ~len:4 "Sisci.get_int32_le";
  Int32.to_int (Bytes.get_int32_le seg.mem off)

let read_into seg ~off ~len dst ~pos =
  check_bounds seg.mem ~off ~len "Sisci.read_into";
  Bytes.blit seg.mem off dst pos len

let write_local seg ~off data =
  check_bounds seg.mem ~off ~len:(Bytes.length data) "Sisci.write_local";
  Bytes.blit data 0 seg.mem off (Bytes.length data)

let set seg ~off c =
  check_bounds seg.mem ~off ~len:1 "Sisci.set";
  Bytes.unsafe_set seg.mem off c

type rx_wait = Poll | Interrupt | Adaptive of Time.span

let rec wait_for_write seg =
  Engine.suspend ~name:"sisci.wait" (fun wake ->
      seg.waiters <- (fun () -> wake ()) :: seg.waiters)

and wait_until ?(mode = Poll) seg pred =
  let owner = seg.owner in
  let started = Engine.now owner.net.engine in
  let rec wait () =
    if not (pred seg) then begin
      wait_for_write seg;
      wait ()
    end
  in
  wait ();
  let waited = Time.diff (Engine.now owner.net.engine) started in
  match mode with
  | Poll ->
      (* The whole wait was a spin loop. *)
      owner.polled <- Time.span_add owner.polled waited;
      Engine.sleep Netparams.sisci_poll_overhead
  | Interrupt -> Engine.sleep Netparams.interrupt_latency
  | Adaptive window ->
      if Time.compare waited window <= 0 then begin
        owner.polled <- Time.span_add owner.polled waited;
        Engine.sleep Netparams.sisci_poll_overhead
      end
      else begin
        (* Spun through the window, then armed the interrupt and slept. *)
        owner.polled <- Time.span_add owner.polled window;
        Engine.sleep Netparams.interrupt_latency
      end

let polled_time t = t.polled
