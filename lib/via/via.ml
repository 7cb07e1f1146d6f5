module Engine = Marcel.Engine
module Mailbox = Marcel.Mailbox
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams

type vi = {
  owner : t;
  mutable peer : vi option;
  recv_queue : Bytes.t Queue.t; (* posted descriptors, FIFO *)
  mutable recv_waiters : (unit -> unit) list; (* senders awaiting a descriptor *)
  completions : (Bytes.t * int) Mailbox.t;
  mutable data_hooks : (unit -> unit) list;
}

and t = {
  net : net;
  host : Node.t;
  exposed : (int, region) Hashtbl.t;
  mutable next_cookie : int;
}

and net = { engine : Engine.t; fabric : Fabric.t; hosts : (int, t) Hashtbl.t }

(* A registered (pinned) interval of a user buffer, usable as the source
   of an {!rdma_write} — or, once {!expose}d under a cookie, as its
   target. Positions are absolute offsets into the underlying buffer. *)
and region = {
  v_host : t;
  v_mem : Bytes.t;
  v_pos : int;
  v_len : int;
  mutable v_active : bool;
}

let make_net engine fabric = { engine; fabric; hosts = Hashtbl.create 16 }

let attach net node =
  if Hashtbl.mem net.hosts node.Node.id then
    invalid_arg "Via.attach: node already attached";
  if not (Fabric.attached net.fabric node) then
    invalid_arg "Via.attach: node not on the fabric";
  let t = { net; host = node; exposed = Hashtbl.create 8; next_cookie = 1 } in
  Hashtbl.add net.hosts node.Node.id t;
  t

let node t = t.host
let max_transfer = Netparams.via_descriptor_max

let create_vi t =
  {
    owner = t;
    peer = None;
    recv_queue = Queue.create ();
    recv_waiters = [];
    completions = Mailbox.create ();
    data_hooks = [];
  }

let completions_available vi = Mailbox.length vi.completions
let set_data_hook vi hook = vi.data_hooks <- hook :: vi.data_hooks

let vi_connect a b =
  (match (a.peer, b.peer) with
  | None, None -> ()
  | _ -> invalid_arg "Via.vi_connect: VI already connected");
  a.peer <- Some b;
  b.peer <- Some a

let post_recv vi buf =
  Queue.push buf vi.recv_queue;
  let waiters = vi.recv_waiters in
  vi.recv_waiters <- [];
  List.iter (fun wake -> wake ()) waiters

let posted_count vi = Queue.length vi.recv_queue

let rec take_descriptor vi =
  match Queue.take_opt vi.recv_queue with
  | Some buf -> buf
  | None ->
      Engine.suspend ~name:"via.descriptor" (fun wake ->
          vi.recv_waiters <- (fun () -> wake ()) :: vi.recv_waiters);
      take_descriptor vi

let send vi data ~len =
  let peer =
    match vi.peer with
    | Some p -> p
    | None -> invalid_arg "Via.send: VI not connected"
  in
  if len > max_transfer then invalid_arg "Via.send: exceeds descriptor max";
  if len > Bytes.length data then invalid_arg "Via.send: len > buffer";
  let target = take_descriptor peer in
  if Bytes.length target < len then
    invalid_arg "Via.send: posted receive buffer too small";
  Engine.sleep Netparams.via_doorbell_overhead;
  Simnet.Xfer.host_to_host vi.owner.net.engine ~fabric:vi.owner.net.fabric
    ~src:vi.owner.host ~dst:peer.owner.host ~src_class:Simnet.Xfer.Dma
    ~dst_class:Simnet.Xfer.Dma ~bytes_count:len ();
  Bytes.blit data 0 target 0 len;
  Mailbox.put peer.completions (target, len);
  List.iter (fun hook -> hook ()) peer.data_hooks

let recv_wait vi =
  let buf, len = Mailbox.take vi.completions in
  Engine.sleep Netparams.via_completion_overhead;
  (buf, len)

(* --- Zero-copy RDMA: registered user buffers -------------------------- *)

let register t data ~pos ~len =
  if pos < 0 || len <= 0 || pos > Bytes.length data - len then
    invalid_arg "Via.register: bad range";
  Simnet.Cost.pin len;
  { v_host = t; v_mem = data; v_pos = pos; v_len = len; v_active = true }

let deregister r =
  if not r.v_active then invalid_arg "Via.deregister: already deregistered";
  r.v_active <- false;
  Simnet.Cost.unpin r.v_len

(* Publish a registered region as an RDMA-write target. The returned
   cookie travels to the sender in the rendezvous clear-to-send; it is
   host-local, so only peers told the cookie can address the region.
   Free beyond the pin already charged by {!register}. *)
let expose t r =
  if not r.v_active then invalid_arg "Via.expose: inactive region";
  if r.v_host != t then invalid_arg "Via.expose: wrong host";
  let cookie = t.next_cookie in
  t.next_cookie <- cookie + 1;
  Hashtbl.add t.exposed cookie r;
  cookie

let retract t ~cookie = Hashtbl.remove t.exposed cookie

(* One-sided RDMA write over a connected VI: moves [len] bytes from the
   local pinned [region] straight into the start of the peer's exposed
   target region. Unlike {!send}, the transfer is not bound by the
   descriptor max (the engine walks the pinned page list), consumes no
   posted descriptor, and completes invisibly to the receiver — the
   rendezvous done message tells it the data landed. *)
let rdma_write vi region ~pos ~len ~cookie =
  let peer =
    match vi.peer with
    | Some p -> p
    | None -> invalid_arg "Via.rdma_write: VI not connected"
  in
  if not region.v_active then invalid_arg "Via.rdma_write: inactive region";
  if
    pos < region.v_pos || len <= 0 || pos - region.v_pos > region.v_len - len
  then invalid_arg "Via.rdma_write: range outside region";
  let target =
    match Hashtbl.find_opt peer.owner.exposed cookie with
    | Some x -> x
    | None -> invalid_arg "Via.rdma_write: unknown target cookie"
  in
  if not target.v_active then invalid_arg "Via.rdma_write: target deregistered";
  if len > target.v_len then invalid_arg "Via.rdma_write: target too small";
  Engine.sleep Netparams.via_doorbell_overhead;
  Simnet.Xfer.host_to_host vi.owner.net.engine ~fabric:vi.owner.net.fabric
    ~src:vi.owner.host ~dst:peer.owner.host ~src_class:Simnet.Xfer.Dma
    ~dst_class:Simnet.Xfer.Dma ~bytes_count:len ();
  Bytes.blit region.v_mem pos target.v_mem target.v_pos len
