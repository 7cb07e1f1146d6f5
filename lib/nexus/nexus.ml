module Engine = Marcel.Engine
module Time = Marcel.Time
module Mad = Madeleine.Api
module Iface = Madeleine.Iface

(* Per-operation costs of the Nexus machinery itself: buffer and thread
   management around every RSR. Calibrated so Nexus/Madeleine/SCI lands
   just under the paper's 25 us minimal latency (Fig. 7). *)
let rsr_send_overhead = Time.us 8.5
let rsr_deliver_overhead = Time.us 8.5

let memcpy_sleep = Simnet.Cost.memcpy

module Buffer = struct
  type t = { mutable data : Bytes.t; mutable fill : int; mutable read : int }

  let create () = { data = Bytes.create 64; fill = 0; read = 0 }
  let size t = t.fill

  let ensure t extra =
    let need = t.fill + extra in
    if need > Bytes.length t.data then begin
      let bigger = Bytes.create (max need (2 * Bytes.length t.data)) in
      Bytes.blit t.data 0 bigger 0 t.fill;
      t.data <- bigger
    end

  let put_int t v =
    ensure t 8;
    Bytes.set_int64_le t.data t.fill (Int64.of_int v);
    t.fill <- t.fill + 8

  let put_bytes t b =
    ensure t (Bytes.length b);
    memcpy_sleep (Bytes.length b);
    Bytes.blit b 0 t.data t.fill (Bytes.length b);
    t.fill <- t.fill + Bytes.length b

  let get_int t =
    if t.read + 8 > t.fill then invalid_arg "Nexus.Buffer.get_int: past end";
    let v = Int64.to_int (Bytes.get_int64_le t.data t.read) in
    t.read <- t.read + 8;
    v

  let get_bytes t ~len =
    if t.read + len > t.fill then
      invalid_arg "Nexus.Buffer.get_bytes: past end";
    memcpy_sleep len;
    let b = Bytes.sub t.data t.read len in
    t.read <- t.read + len;
    b

  let contents t = Bytes.sub t.data 0 t.fill

  let of_wire b =
    { data = Bytes.copy b; fill = Bytes.length b; read = 0 }
end

type transport = {
  tr_name : string;
  tr_send : dst:int -> Bytes.t -> unit;
  tr_next : unit -> int * Bytes.t;
}

(* ---- TCP proto: one pre-established, length-framed stream per pair;
   a reader thread per stream end funnels messages into the rank's
   incoming queue. *)

let tcp_transports engine ~stacks =
  let n = Array.length stacks in
  let conns = Array.make_matrix n n None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ci, cj = Tcpnet.socketpair stacks.(i) stacks.(j) in
      conns.(i).(j) <- Some ci;
      conns.(j).(i) <- Some cj
    done
  done;
  let incoming = Array.init n (fun _ -> Marcel.Mailbox.create ()) in
  for me = 0 to n - 1 do
    for peer = 0 to n - 1 do
      match conns.(me).(peer) with
      | None -> ()
      | Some conn ->
          Engine.spawn engine ~daemon:true
            ~name:(Printf.sprintf "nexus.tcp.reader.%d<-%d" me peer)
            (fun () ->
              let hdr = Bytes.create 4 in
              while true do
                Tcpnet.recv conn hdr ~off:0 ~len:4;
                let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
                let payload = Bytes.create len in
                if len > 0 then Tcpnet.recv conn payload ~off:0 ~len;
                Marcel.Mailbox.put incoming.(me) (peer, payload)
              done)
    done
  done;
  Array.init n (fun me ->
      let tr_send ~dst payload =
        match conns.(me).(dst) with
        | None -> invalid_arg "Nexus/tcp: no connection to peer"
        | Some conn ->
            let hdr = Bytes.create 4 in
            Bytes.set_int32_le hdr 0 (Int32.of_int (Bytes.length payload));
            Tcpnet.send_group conn
              [ (hdr, 0, 4); (payload, 0, Bytes.length payload) ]
      in
      {
        tr_name = "tcp";
        tr_send;
        tr_next = (fun () -> Marcel.Mailbox.take incoming.(me));
      })

(* ---- Madeleine proto: header express, payload cheaper. *)

let mad_transport channel ~rank =
  let ep = Madeleine.Channel.endpoint channel ~rank in
  let tr_send ~dst payload =
    let hdr = Bytes.create 4 in
    Bytes.set_int32_le hdr 0 (Int32.of_int (Bytes.length payload));
    let oc = Mad.begin_packing ep ~remote:dst in
    Mad.pack oc ~r_mode:Iface.Receive_express hdr;
    if Bytes.length payload > 0 then
      Mad.pack oc ~r_mode:Iface.Receive_cheaper payload;
    Mad.end_packing oc
  in
  let tr_next () =
    let ic = Mad.begin_unpacking ep in
    let hdr = Bytes.create 4 in
    Mad.unpack ic ~r_mode:Iface.Receive_express hdr;
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
    let payload = Bytes.create len in
    if len > 0 then Mad.unpack ic ~r_mode:Iface.Receive_cheaper payload;
    Mad.end_unpacking ic;
    (Mad.remote_rank ic, payload)
  in
  { tr_name = "madeleine"; tr_send; tr_next }

(* ---- Madeleine virtual-channel proto: the same framing, across
   clusters of clusters. *)

let mad_vchannel_transport vc ~rank =
  let module Vc = Madeleine.Vchannel in
  let tr_send ~dst payload =
    let hdr = Bytes.create 4 in
    Bytes.set_int32_le hdr 0 (Int32.of_int (Bytes.length payload));
    let oc = Vc.begin_packing vc ~me:rank ~remote:dst in
    Vc.pack oc ~r_mode:Iface.Receive_express hdr;
    if Bytes.length payload > 0 then
      Vc.pack oc ~r_mode:Iface.Receive_cheaper payload;
    Vc.end_packing oc
  in
  let tr_next () =
    let ic = Vc.begin_unpacking vc ~me:rank in
    let hdr = Bytes.create 4 in
    Vc.unpack ic ~r_mode:Iface.Receive_express hdr;
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
    let payload = Bytes.create len in
    if len > 0 then Vc.unpack ic ~r_mode:Iface.Receive_cheaper payload;
    Vc.end_unpacking ic;
    (Vc.remote_rank ic, payload)
  in
  { tr_name = "madeleine/vchannel"; tr_send; tr_next }

(* ---- Contexts, endpoints, RSR dispatch. *)

type ctx = {
  c_rank : int;
  engine : Engine.t;
  transport : transport;
  endpoints : (int, (ctx -> Buffer.t -> unit) array) Hashtbl.t;
  mutable next_endpoint : int;
}

type world = { ctxs : ctx array }
type endpoint = { ep_ctx : ctx; ep_id : int }
type startpoint = { sp_rank : int; sp_endpoint : int }

(* RSR wire format: endpoint id, handler id, buffer contents. *)
let encode_rsr ~endpoint_id ~handler buf =
  let body = Buffer.contents buf in
  let msg = Bytes.create (8 + Bytes.length body) in
  Bytes.set_int32_le msg 0 (Int32.of_int endpoint_id);
  Bytes.set_int32_le msg 4 (Int32.of_int handler);
  Bytes.blit body 0 msg 8 (Bytes.length body);
  msg

let dispatcher c () =
  while true do
    let _src, msg = c.transport.tr_next () in
    Engine.sleep rsr_deliver_overhead;
    let endpoint_id = Int32.to_int (Bytes.get_int32_le msg 0) in
    let handler = Int32.to_int (Bytes.get_int32_le msg 4) in
    let body = Bytes.sub msg 8 (Bytes.length msg - 8) in
    match Hashtbl.find_opt c.endpoints endpoint_id with
    | None ->
        invalid_arg
          (Printf.sprintf "Nexus: RSR for unknown endpoint %d at rank %d"
             endpoint_id c.c_rank)
    | Some handlers ->
        if handler < 0 || handler >= Array.length handlers then
          invalid_arg "Nexus: RSR handler out of range";
        let h = handlers.(handler) in
        Engine.spawn c.engine
          ~name:(Printf.sprintf "nexus.handler.%d" c.c_rank)
          (fun () -> h c (Buffer.of_wire body))
  done

let create_world engine ~transports =
  let ctxs =
    Array.mapi
      (fun r transport ->
        {
          c_rank = r;
          engine;
          transport;
          endpoints = Hashtbl.create 8;
          next_endpoint = 0;
        })
      transports
  in
  Array.iter
    (fun c ->
      Engine.spawn engine ~daemon:true
        ~name:(Printf.sprintf "nexus.dispatch.%d" c.c_rank)
        (dispatcher c))
    ctxs;
  { ctxs }

let ctx w ~rank = w.ctxs.(rank)
let rank c = c.c_rank

let make_endpoint c ~handlers =
  let id = c.next_endpoint in
  c.next_endpoint <- id + 1;
  Hashtbl.add c.endpoints id handlers;
  { ep_ctx = c; ep_id = id }

let startpoint ep = { sp_rank = ep.ep_ctx.c_rank; sp_endpoint = ep.ep_id }
let startpoint_rank sp = sp.sp_rank

let put_startpoint buf sp =
  Buffer.put_int buf sp.sp_rank;
  Buffer.put_int buf sp.sp_endpoint

let get_startpoint buf =
  let sp_rank = Buffer.get_int buf in
  let sp_endpoint = Buffer.get_int buf in
  { sp_rank; sp_endpoint }

let send_rsr c sp ~handler buf =
  Engine.sleep rsr_send_overhead;
  c.transport.tr_send ~dst:sp.sp_rank
    (encode_rsr ~endpoint_id:sp.sp_endpoint ~handler buf)
