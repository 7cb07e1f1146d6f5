module Engine = Marcel.Engine
module Mutex = Marcel.Mutex

type out_connection = {
  oc_channel : Channel.t;
  oc_src : int;
  oc_dst : int;
  oc_link : Link.sender;
  mutable oc_tm : int; (* -1: no TM selected yet in this message *)
  mutable oc_closed : bool;
}

type in_connection = {
  ic_channel : Channel.t;
  ic_me : int;
  ic_from : int;
  ic_link : Link.receiver;
  mutable ic_tm : int;
  mutable ic_bytes : int; (* unpacked so far, for the delivery record *)
  mutable ic_closed : bool;
}

let begin_packing ep ~remote =
  let link = Channel.sender_link ep ~remote in
  Mutex.lock link.Link.s_mutex;
  Engine.sleep Config.begin_overhead;
  {
    oc_channel = Channel.endpoint_channel ep;
    oc_src = Channel.endpoint_rank ep;
    oc_dst = remote;
    oc_link = link;
    oc_tm = -1;
    oc_closed = false;
  }

let pack oc ?(s_mode = Iface.Send_cheaper) ?(r_mode = Iface.Receive_cheaper)
    ?(transit = false) ?off ?len data =
  if oc.oc_closed then invalid_arg "Madeleine.pack: connection closed";
  Engine.sleep Config.pack_overhead;
  let buf = Buf.make ?off ?len data in
  if (Channel.config oc.oc_channel).Config.checked then
    Channel.sym_push oc.oc_channel ~src:oc.oc_src ~dst:oc.oc_dst
      (Buf.length buf, s_mode, r_mode);
  let bmms = oc.oc_link.Link.s_bmms in
  let tm = oc.oc_link.Link.s_select ~len:(Buf.length buf) ~transit s_mode r_mode in
  Channel.record_usage oc.oc_channel ~tm ~bytes_count:(Buf.length buf);
  (* Switching TMs commits the previous BMM so delivery order across
     transfer methods is preserved (paper §4.1). *)
  if oc.oc_tm >= 0 && oc.oc_tm <> tm then bmms.(oc.oc_tm).Bmm.commit ();
  oc.oc_tm <- tm;
  bmms.(tm).Bmm.append buf s_mode r_mode

let end_packing oc =
  if oc.oc_closed then invalid_arg "Madeleine.end_packing: connection closed";
  Engine.sleep Config.end_overhead;
  if oc.oc_tm >= 0 then oc.oc_link.Link.s_bmms.(oc.oc_tm).Bmm.commit ();
  oc.oc_closed <- true;
  Mutex.unlock oc.oc_link.Link.s_mutex

let abort_packing oc =
  if not oc.oc_closed then begin
    oc.oc_closed <- true;
    Mutex.unlock oc.oc_link.Link.s_mutex
  end

let make_in ep ~from link =
  Mutex.lock link.Link.r_mutex;
  Engine.sleep Config.begin_overhead;
  {
    ic_channel = Channel.endpoint_channel ep;
    ic_me = Channel.endpoint_rank ep;
    ic_from = from;
    ic_link = link;
    ic_tm = -1;
    ic_bytes = 0;
    ic_closed = false;
  }

let begin_unpacking ep =
  let from = Channel.wait_any_arrival ep in
  make_in ep ~from (Channel.receiver_link ep ~from)

let begin_unpacking_from ep ~remote =
  make_in ep ~from:remote (Channel.receiver_link ep ~from:remote)

let remote_rank ic = ic.ic_from

let unpack ic ?(s_mode = Iface.Send_cheaper) ?(r_mode = Iface.Receive_cheaper)
    ?(transit = false) ?off ?len data =
  if ic.ic_closed then invalid_arg "Madeleine.unpack: connection closed";
  Engine.sleep Config.unpack_overhead;
  let buf = Buf.make ?off ?len data in
  if (Channel.config ic.ic_channel).Config.checked then
    Channel.sym_check ic.ic_channel ~src:ic.ic_from ~dst:ic.ic_me
      (Buf.length buf, s_mode, r_mode);
  let bmms = ic.ic_link.Link.r_bmms in
  let tm = ic.ic_link.Link.r_select ~len:(Buf.length buf) ~transit s_mode r_mode in
  (* The receiving side replays the sender's Switch decisions; a TM
     change checks the previous BMM out before touching the new stream. *)
  if ic.ic_tm >= 0 && ic.ic_tm <> tm then bmms.(ic.ic_tm).Bmm.checkout ();
  ic.ic_tm <- tm;
  ic.ic_bytes <- ic.ic_bytes + Buf.length buf;
  bmms.(tm).Bmm.extract buf s_mode r_mode

let end_unpacking ic =
  if ic.ic_closed then invalid_arg "Madeleine.end_unpacking: connection closed";
  Engine.sleep Config.end_overhead;
  if ic.ic_tm >= 0 then ic.ic_link.Link.r_bmms.(ic.ic_tm).Bmm.checkout ();
  ic.ic_closed <- true;
  Engine.note_delivery (Channel.engine ic.ic_channel) ~src:ic.ic_from
    ~dst:ic.ic_me ~bytes:ic.ic_bytes;
  Mutex.unlock ic.ic_link.Link.r_mutex

(* For a receiver abandoning a message whose tail can no longer arrive
   (the transport raised out of an unpack or out of [end_unpacking]):
   releases the link without draining. The BMMs have already discarded
   their deferred state on the failing read, so the link is clean for
   the next message. *)
let abort_unpacking ic =
  if not ic.ic_closed then begin
    ic.ic_closed <- true;
    Mutex.unlock ic.ic_link.Link.r_mutex
  end
