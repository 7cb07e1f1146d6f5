module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Pipeline = Simnet.Pipeline

(* Consumable byte queue: chunks plus a read offset into the head chunk. *)
module Bytequeue = struct
  type t = { chunks : Bytes.t Queue.t; mutable head_off : int; mutable size : int }

  let create () = { chunks = Queue.create (); head_off = 0; size = 0 }
  let length q = q.size

  let clear q =
    Queue.clear q.chunks;
    q.head_off <- 0;
    q.size <- 0

  let push q b =
    if Bytes.length b > 0 then begin
      Queue.push b q.chunks;
      q.size <- q.size + Bytes.length b
    end

  (* Pops up to [len] bytes into [buf] at [off]; returns count taken. *)
  let pop_into q buf ~off ~len =
    let taken = ref 0 in
    while !taken < len && q.size > 0 do
      let head = Queue.peek q.chunks in
      let avail = Bytes.length head - q.head_off in
      let want = min avail (len - !taken) in
      Bytes.blit head q.head_off buf (off + !taken) want;
      taken := !taken + want;
      q.size <- q.size - want;
      if want = avail then begin
        ignore (Queue.pop q.chunks);
        q.head_off <- 0
      end
      else q.head_off <- q.head_off + want
    done;
    !taken
end

exception Timeout of { msg : string; attempts : int }

(* One reliable-mode frame in flight: payload, integrity check and the
   retransmission bookkeeping the go-back-N sender needs. *)
type frame = {
  f_seq : int;
  f_data : Bytes.t;
  f_crc : int;
  f_fragments : int;
  f_len : int;
  mutable f_sent_at : Time.t; (* last (re)transmission instant *)
  mutable f_floor : Time.span; (* serialization lower bound for the RTO *)
  mutable f_rexmit : bool; (* retransmitted at least once (Karn's rule) *)
}

type conn = {
  stack : t;
  mutable peer : conn option;
  inbox : Bytequeue.t;
  mutable readers : (unit -> unit) list;
  mutable data_hooks : (unit -> unit) list;
  mutable out_stream : Simnet.Stream.t option;
      (* lazily-built FIFO delivery pipeline toward the peer *)
  (* Reliability state, live only when the fabric has a fault plane
     attached (Fabric.set_faults); on the default fault-free path none
     of these fields is ever touched. *)
  mutable tx_seq : int; (* next frame sequence number to send *)
  mutable rx_next : int; (* next frame sequence number to accept *)
  mutable acked : int; (* highest cumulatively acked sent seq *)
  sendq : frame Queue.t; (* in-flight window, oldest first *)
  mutable inflight_bytes : int;
  mutable srtt : float; (* smoothed RTT, microseconds *)
  mutable rttvar : float; (* RTT mean deviation, microseconds *)
  mutable have_rtt : bool;
  mutable backoff : int; (* RTO doublings since the last ack progress *)
  mutable ack_waiters : (unit -> unit) list; (* window-admission waiters *)
  mutable rtx_wake : (unit -> unit) option; (* retransmitter daemon wake *)
  mutable rtx_alive : bool;
  mutable peer_epoch_seen : int; (* peer restart epoch at last session sync *)
  mutable retries : int; (* total retransmissions on this conn *)
  mutable consec_fail : int; (* RTO expiries since the last ack progress *)
  mutable dead : bool; (* retransmission gave up: peer unreachable *)
  mutable crc_rejects : int; (* corrupted frames this end discarded *)
  mutable dup_frames : int; (* duplicate/out-of-window frames discarded *)
  mutable rx_slot : Time.t; (* slow-receiver pacing cursor (Faults.rx_cap) *)
  mutable peak_inbox : int; (* highest buffered unconsumed bytes observed *)
  mutable peak_sendq : int; (* highest in-flight window occupancy observed *)
}

and t = {
  net : net;
  host : Node.t;
  listeners : (int, conn Mailbox.t) Hashtbl.t;
}

and net = {
  engine : Engine.t;
  fabric : Fabric.t;
  stacks : (int, t) Hashtbl.t;
  window : int; (* go-back-N sender window, in frames *)
  max_retries : int; (* RTO expiries before a conn is declared dead *)
  mutable conns : conn list; (* every end ever created on this net *)
  mutable fault_hooks : bool; (* crash/restart listeners installed *)
  mutable net_retransmissions : int;
  mutable net_crc_rejects : int;
  mutable net_handshakes : int; (* crash-epoch session resyncs performed *)
}

let make_net ?(window = 8) ?(max_retries = 12) engine fabric =
  if window < 1 then invalid_arg "Tcpnet.make_net: window must be >= 1";
  if max_retries < 1 then invalid_arg "Tcpnet.make_net: max_retries must be >= 1";
  {
    engine;
    fabric;
    stacks = Hashtbl.create 16;
    window;
    max_retries;
    conns = [];
    fault_hooks = false;
    net_retransmissions = 0;
    net_crc_rejects = 0;
    net_handshakes = 0;
  }

let net_stats net = (net.net_retransmissions, net.net_crc_rejects)
let net_handshakes net = net.net_handshakes

let attach net node =
  if Hashtbl.mem net.stacks node.Node.id then
    invalid_arg "Tcpnet.attach: node already attached";
  if not (Fabric.attached net.fabric node) then
    invalid_arg "Tcpnet.attach: node not on the fabric";
  let t = { net; host = node; listeners = Hashtbl.create 8 } in
  Hashtbl.add net.stacks node.Node.id t;
  t

let node t = t.host
let engine t = t.net.engine
let fabric_name t = Fabric.name t.net.fabric

let listen t ~port =
  if Hashtbl.mem t.listeners port then
    invalid_arg "Tcpnet.listen: port already bound";
  Hashtbl.add t.listeners port (Mailbox.create ())

let accept t ~port =
  match Hashtbl.find_opt t.listeners port with
  | None -> invalid_arg "Tcpnet.accept: port not listening"
  | Some box -> Mailbox.take box

let fresh_conn stack =
  let c =
  {
    stack;
    peer = None;
    inbox = Bytequeue.create ();
    readers = [];
    data_hooks = [];
    out_stream = None;
    tx_seq = 0;
    rx_next = 0;
    acked = -1;
    sendq = Queue.create ();
    inflight_bytes = 0;
    srtt = 0.0;
    rttvar = 0.0;
    have_rtt = false;
    backoff = 0;
    ack_waiters = [];
    rtx_wake = None;
    rtx_alive = false;
    peer_epoch_seen = -1;
    retries = 0;
    consec_fail = 0;
    dead = false;
    crc_rejects = 0;
    dup_frames = 0;
    rx_slot = Time.zero;
    peak_inbox = 0;
    peak_sendq = 0;
  }
  in
  stack.net.conns <- c :: stack.net.conns;
  c

let set_data_hook conn hook = conn.data_hooks <- hook :: conn.data_hooks

(* One-way small-packet time: kernel path plus wire latency. *)
let hop_latency net =
  Time.span_add Netparams.tcp_send_overhead
    (Time.span_add (Fabric.link net.fabric).Netparams.wire_lat
       Netparams.tcp_recv_overhead)

let connect ?timeout t ~node_id ~port =
  let peer_stack =
    match Hashtbl.find_opt t.net.stacks node_id with
    | Some s -> s
    | None -> invalid_arg "Tcpnet.connect: unknown node"
  in
  let box =
    match Hashtbl.find_opt peer_stack.listeners port with
    | Some b -> b
    | None -> invalid_arg "Tcpnet.connect: peer not listening"
  in
  (match Fabric.faults t.net.fabric with
  | Some faults when not (Simnet.Faults.node_up faults node_id) -> (
      (* SYNs to a crashed host vanish. With a timeout we give up after
         it; without one we hang, like a real blocking connect. *)
      match timeout with
      | Some span ->
          Engine.sleep span;
          raise
            (Timeout
               {
                 msg =
                   Printf.sprintf "Tcpnet.connect: node %d unreachable" node_id;
                 attempts = 0;
               })
      | None -> Engine.suspend ~name:"tcp.connect" (fun _wake -> ()))
  | _ -> ());
  let local = fresh_conn t and remote = fresh_conn peer_stack in
  local.peer <- Some remote;
  remote.peer <- Some local;
  (* SYN / SYN-ACK round trip. *)
  Engine.sleep (Time.span_mul (hop_latency t.net) 2);
  Mailbox.put box remote;
  local

let socketpair a b =
  let ca = fresh_conn a and cb = fresh_conn b in
  ca.peer <- Some cb;
  cb.peer <- Some ca;
  (ca, cb)

let wake_readers conn =
  let readers = conn.readers in
  conn.readers <- [];
  List.iter (fun wake -> wake ()) readers;
  List.iter (fun hook -> hook ()) conn.data_hooks

let push_inbox conn data =
  Bytequeue.push conn.inbox data;
  let n = Bytequeue.length conn.inbox in
  if n > conn.peak_inbox then conn.peak_inbox <- n

let out_stream conn remote =
  match conn.out_stream with
  | Some st -> st
  | None ->
      let net = conn.stack.net in
      let link = Fabric.link net.fabric in
      let st =
        Simnet.Stream.create net.engine
          ~stages:
            [
              Pipeline.stage
                ~use:(Simnet.Xfer.pci_use conn.stack.host Simnet.Xfer.Dma)
                "src-pci";
              Pipeline.stage
                ~use:
                  {
                    Pipeline.fluid = Fabric.tx net.fabric conn.stack.host;
                    weight = 1.0;
                    rate_cap = Some Netparams.tcp_rate_cap_mb_s;
                    cls = 0;
                  }
                ~prop:link.Netparams.wire_lat "eth-tx";
              Pipeline.stage
                ~use:
                  {
                    Pipeline.fluid = Fabric.rx net.fabric remote.stack.host;
                    weight = 1.0;
                    rate_cap = Some Netparams.tcp_rate_cap_mb_s;
                    cls = 0;
                  }
                "eth-rx";
              Pipeline.stage
                ~use:(Simnet.Xfer.pci_use remote.stack.host Simnet.Xfer.Dma)
                "dst-pci";
            ]
          ~mtu:link.Netparams.hw_mtu
      in
      conn.out_stream <- Some st;
      st

(* One kernel entry ships [data] (the send's staging copy); delivery
   continues asynchronously in the per-connection FIFO stream, as with a
   real socket buffer. *)
let fast_transmit conn remote data =
  Engine.sleep Netparams.tcp_send_overhead;
  Simnet.Stream.push (out_stream conn remote) ~bytes_count:(Bytes.length data)
    ~on_delivered:(fun () ->
      push_inbox remote data;
      wake_readers remote)

let host_id conn = conn.stack.host.Node.id

(* ------------------------------------------------------------------ *)
(* Reliable mode: go-back-N sliding window with adaptive RTO and       *)
(* crash-epoch session resync. Only runs when a fault plane is         *)
(* attached to the fabric; the fast path above is never touched.       *)
(* ------------------------------------------------------------------ *)

let wake_acked conn =
  let waiters = conn.ack_waiters in
  conn.ack_waiters <- [];
  List.iter (fun w -> w ()) waiters

let wake_rtx conn = match conn.rtx_wake with Some w -> w () | None -> ()

(* A conn declared dead stays dead until one of the hosts restarts with
   a bumped epoch, at which point [session_resync] revives it. Readers
   are woken too: bytes they are waiting for may never arrive, and
   [recv] turns that into a {!Timeout} from their own context. *)
let mark_dead conn remote =
  conn.dead <- true;
  remote.dead <- true;
  wake_acked conn;
  wake_acked remote;
  wake_rtx conn;
  wake_rtx remote;
  wake_readers conn;
  wake_readers remote

(* A read (or a window wait) on this end cannot make progress: the conn
   gave up, or either host is down right now. A blocked receiver must
   not outwait this — the missing bytes died in the crashed host's
   socket buffer and will never be retransmitted. *)
let conn_unreachable conn =
  conn.dead
  ||
  match Fabric.faults conn.stack.net.fabric with
  | None -> false
  | Some faults ->
      (not (Simnet.Faults.node_up faults conn.stack.host.Node.id))
      || (match conn.peer with
         | Some peer ->
             not (Simnet.Faults.node_up faults peer.stack.host.Node.id)
         | None -> false)

(* Socket reset at restart: the rebooted host's TCP state died with it,
   so both directions of every conn touching it start over — in-flight
   frames and unconsumed buffered bytes of the old epoch are discarded
   (as with ECONNRESET) and the session layer above replays whole
   packets from its origin-side logs. Sequence counters keep running so
   the survivor's cursor arithmetic stays monotonic. Idempotent: the
   restart hook visits both ends of a pair. *)
let reset_socket conn remote =
  let purge c =
    Queue.clear c.sendq;
    c.inflight_bytes <- 0;
    c.acked <- c.tx_seq - 1;
    c.have_rtt <- false;
    c.backoff <- 0;
    c.consec_fail <- 0;
    c.rx_slot <- Time.zero;
    Bytequeue.clear c.inbox
  in
  purge conn;
  purge remote;
  conn.rx_next <- remote.tx_seq;
  remote.rx_next <- conn.tx_seq;
  wake_acked conn;
  wake_acked remote;
  wake_rtx conn;
  wake_rtx remote;
  wake_readers conn;
  wake_readers remote

(* Crash/restart listeners, installed once per net at the first reliable
   use. On a crash, every blocked reader and window waiter touching the
   node is woken so it can observe [conn_unreachable] and fail from its
   own context instead of outwaiting a send that will never complete; on
   a restart, the sockets are reset before any new byte can flow. *)
let install_fault_hooks net faults =
  if not net.fault_hooks then begin
    net.fault_hooks <- true;
    let each_pair node f =
      List.iter
        (fun c ->
          match c.peer with
          | Some peer
            when c.stack.host.Node.id = node
                 || peer.stack.host.Node.id = node ->
              f c peer
          | _ -> ())
        net.conns
    in
    Simnet.Faults.on_crash faults (fun node ->
        each_pair node (fun c _peer ->
            wake_acked c;
            wake_readers c));
    Simnet.Faults.on_restart faults (fun node ->
        each_pair node (fun c peer -> reset_socket c peer));
    (* A partition starves retransmissions until [max_retries] declares
       the conn dead, but neither host crashed — so no epoch ever moves
       and [session_resync] would leave it dead forever. Healing the
       fabric revives such conns directly: the socket state is reset
       (in-flight frames of the cut era are gone for good, exactly as
       after a restart) and the session layer above replays from its
       origin-side logs. Conns dead because a host is still down are
       left for the restart path. *)
    Simnet.Faults.on_heal faults (fun fabric ->
        if Fabric.name net.fabric = fabric then
          List.iter
            (fun c ->
              match c.peer with
              | Some peer
                when c.dead
                     && Simnet.Faults.node_up faults (host_id c)
                     && Simnet.Faults.node_up faults (host_id peer) ->
                  reset_socket c peer;
                  c.dead <- false;
                  peer.dead <- false
              | _ -> ())
            net.conns)
  end

(* Serialization lower bound for one frame's RTO, given every byte
   queued ahead of it (including itself): four small-packet hops plus
   the queued bytes at a conservative 8 MB/s plus scheduling slack.
   This is the same bound the stop-and-wait path used, extended to the
   window case: with several frames in flight, a later frame's ack
   cannot arrive before the earlier frames have drained the wire, so
   the floor must cover the cumulative backlog or a loss-free world
   would retransmit spuriously. When the fault plane caps the
   receiver's drain rate ({!Simnet.Faults.slow_receiver}), the capped
   drain is one more serial stage after the wire, so the floor adds the
   backlog at the capped rate on top — otherwise a
   throttled-but-lossless receiver looks like a dead one and go-back-N
   storms it. Without a cap the floor is unchanged. *)
let frame_floor net ~rx_cap ~queued_bytes =
  let qb = max queued_bytes 1 in
  let base =
    Time.span_add
      (Time.span_mul (hop_latency net) 4)
      (Time.span_add
         (Time.bytes_at_rate ~bytes_count:qb ~mb_per_s:8.0)
         (Time.us 200.0))
  in
  match rx_cap with
  | None -> base
  | Some cap ->
      Time.span_add base (Time.bytes_at_rate ~bytes_count:qb ~mb_per_s:cap)

let rx_cap_of net remote =
  match Fabric.faults net.fabric with
  | None -> None
  | Some faults ->
      Simnet.Faults.rx_cap faults ~fabric:(Fabric.name net.fabric)
        ~node:remote.stack.host.Node.id

(* Jacobson/Karel: srtt += err/8, rttvar += (|err| - rttvar)/4. *)
let rtt_sample conn rtt =
  let rtt_us = Time.to_us rtt in
  if not conn.have_rtt then begin
    conn.srtt <- rtt_us;
    conn.rttvar <- rtt_us /. 2.0;
    conn.have_rtt <- true
  end
  else begin
    let err = rtt_us -. conn.srtt in
    conn.srtt <- conn.srtt +. (err /. 8.0);
    conn.rttvar <- conn.rttvar +. ((Float.abs err -. conn.rttvar) /. 4.0)
  end

(* Current RTO for [f]: max(adaptive estimate, per-frame serialization
   floor), doubled per consecutive expiry (Karn's backoff). *)
let cur_rto conn f =
  let adaptive =
    if conn.have_rtt then
      Time.us (conn.srtt +. Float.max (4.0 *. conn.rttvar) 100.0)
    else f.f_floor
  in
  let base = max f.f_floor adaptive in
  Time.span_mul base (1 lsl min conn.backoff 10)

let rec apply_ack conn ack_upto =
  if ack_upto > conn.acked then begin
    let now = Engine.now conn.stack.net.engine in
    conn.acked <- ack_upto;
    while
      (not (Queue.is_empty conn.sendq))
      && (Queue.peek conn.sendq).f_seq <= ack_upto
    do
      let f = Queue.pop conn.sendq in
      conn.inflight_bytes <- conn.inflight_bytes - f.f_len;
      (* Karn's rule: never sample RTT from a retransmitted frame. *)
      if not f.f_rexmit then rtt_sample conn (Time.diff now f.f_sent_at)
    done;
    conn.backoff <- 0;
    conn.consec_fail <- 0;
    wake_acked conn;
    wake_rtx conn
  end

(* Cumulative ack (including dup-acks for out-of-order frames): rides
   the reverse link one hop later and is itself subject to the plane. *)
and schedule_ack conn remote faults =
  let net = conn.stack.net in
  let engine = net.engine in
  let fabric_name = Fabric.name net.fabric in
  let src = host_id conn and dst = host_id remote in
  let ack_upto = remote.rx_next - 1 in
  Engine.at engine
    (Time.add (Engine.now engine) (hop_latency net))
    (fun () ->
      match
        Simnet.Faults.frame_verdict faults ~fabric:fabric_name ~src:dst
          ~dst:src ~fragments:1
      with
      | Simnet.Faults.Deliver | Simnet.Faults.Duplicate ->
          apply_ack conn ack_upto
      | Simnet.Faults.Delay span ->
          Engine.at engine
            (Time.add (Engine.now engine) span)
            (fun () -> apply_ack conn ack_upto)
      | Simnet.Faults.Drop | Simnet.Faults.Corrupt -> ())

(* Ship one frame toward the peer; the receiver-side fate (verdict, CRC
   check, in-order delivery, cumulative ack) runs at delivery time. *)
and push_wire conn remote faults f =
  let net = conn.stack.net in
  let engine = net.engine in
  let fabric_name = Fabric.name net.fabric in
  let src = host_id conn and dst = host_id remote in
  Engine.sleep Netparams.tcp_send_overhead;
  f.f_sent_at <- Engine.now engine;
  Simnet.Stream.push (out_stream conn remote) ~bytes_count:f.f_len
    ~on_delivered:(fun () ->
      let process data =
        if Simnet.Checksum.crc32 data <> f.f_crc then begin
          (* Detected corruption: discard silently, no ack — the
             sender's RTO covers recovery. *)
          remote.crc_rejects <- remote.crc_rejects + 1;
          net.net_crc_rejects <- net.net_crc_rejects + 1
        end
        else begin
          if f.f_seq = remote.rx_next then begin
            remote.rx_next <- f.f_seq + 1;
            push_inbox remote data;
            wake_readers remote
          end
          else remote.dup_frames <- remote.dup_frames + 1;
          schedule_ack conn remote faults
        end
      in
      (* Slow-receiver throttle: a capped destination drains delivered
         frames through a monotonic per-conn pacing cursor (FIFO order
         preserved: each frame advances the cursor by its own
         serialization time at the capped rate). Without a cap the
         frame is processed at delivery time, untouched. *)
      let paced run =
        match Simnet.Faults.rx_cap faults ~fabric:fabric_name ~node:dst with
        | None -> run ()
        | Some cap ->
            let now = Engine.now engine in
            let start =
              if Time.( < ) now remote.rx_slot then remote.rx_slot else now
            in
            let fin =
              Time.add start
                (Time.bytes_at_rate ~bytes_count:f.f_len ~mb_per_s:cap)
            in
            remote.rx_slot <- fin;
            Engine.at engine fin run
      in
      match
        Simnet.Faults.frame_verdict faults ~fabric:fabric_name ~src ~dst
          ~fragments:f.f_fragments
      with
      | Simnet.Faults.Drop -> ()
      | Simnet.Faults.Deliver -> paced (fun () -> process f.f_data)
      | Simnet.Faults.Corrupt ->
          let garbled = Simnet.Faults.corrupt_copy faults f.f_data in
          paced (fun () -> process garbled)
      | Simnet.Faults.Duplicate ->
          paced (fun () -> process f.f_data);
          paced (fun () -> process f.f_data)
      | Simnet.Faults.Delay span ->
          Engine.at engine
            (Time.add (Engine.now engine) span)
            (fun () -> paced (fun () -> process f.f_data)))

(* First reliable use of a conn pins the peer epochs it was established
   under, so a restart that predates the conn is not mistaken for a
   crash of the session. *)
let ensure_epoch_baseline conn remote faults =
  if conn.peer_epoch_seen < 0 then
    conn.peer_epoch_seen <- Simnet.Faults.epoch faults (host_id remote);
  if remote.peer_epoch_seen < 0 then
    remote.peer_epoch_seen <- Simnet.Faults.epoch faults (host_id conn)

(* Crash-epoch session handshake. When either host has restarted since
   the last sync (its fault-plane epoch moved past what this session
   recorded), the peers exchange (epoch, delivery cursor, send cursor)
   over one round trip and the conn comes back to life; the socket
   state itself was already reset at the restart instant
   ({!reset_socket}), so the handshake's job is agreement and revival.
   Callers re-check the epoch after the handshake RTT so concurrent
   syncs collapse into one. *)
let session_resync conn remote faults =
  let net = conn.stack.net in
  let need () =
    Simnet.Faults.epoch faults (host_id remote) > conn.peer_epoch_seen
    || Simnet.Faults.epoch faults (host_id conn) > remote.peer_epoch_seen
  in
  let both_up () =
    Simnet.Faults.node_up faults (host_id conn)
    && Simnet.Faults.node_up faults (host_id remote)
  in
  if need () && both_up () then begin
    Engine.sleep (Time.span_mul (hop_latency net) 2);
    if need () && both_up () then begin
      conn.peer_epoch_seen <- Simnet.Faults.epoch faults (host_id remote);
      remote.peer_epoch_seen <- Simnet.Faults.epoch faults (host_id conn);
      List.iter
        (fun c ->
          c.dead <- false;
          c.have_rtt <- false;
          c.backoff <- 0;
          c.consec_fail <- 0)
        [ conn; remote ];
      net.net_handshakes <- net.net_handshakes + 1;
      wake_acked conn;
      wake_acked remote;
      wake_rtx conn;
      wake_rtx remote
    end
  end

(* One RTO expiry on the oldest in-flight frame: resync if an epoch
   moved, fail fast if a host is down, give up past the retry budget,
   otherwise go-back-N — retransmit the whole window, oldest first. *)
let on_expiry conn remote faults =
  let net = conn.stack.net in
  session_resync conn remote faults;
  if (not conn.dead) && not (Queue.is_empty conn.sendq) then begin
    let src = host_id conn and dst = host_id remote in
    if
      not (Simnet.Faults.node_up faults src && Simnet.Faults.node_up faults dst)
    then mark_dead conn remote
    else begin
      conn.consec_fail <- conn.consec_fail + 1;
      if conn.consec_fail >= net.max_retries then mark_dead conn remote
      else begin
        conn.backoff <- min (conn.backoff + 1) 10;
        let frames = List.of_seq (Queue.to_seq conn.sendq) in
        let rx_cap = rx_cap_of net remote in
        (* A capped receiver drains the original copies too: the resent
           duplicates queue behind everything still unacked, so their
           floors must cover the whole in-flight backlog or the spurious
           expiry repeats until backoff catches up. *)
        let backlog =
          match rx_cap with Some _ -> conn.inflight_bytes | None -> 0
        in
        let cum = ref 0 in
        List.iter
          (fun f ->
            (* Acks may land between resends; skip what they covered. *)
            if f.f_seq > conn.acked && not conn.dead then begin
              cum := !cum + f.f_len;
              f.f_floor <-
                frame_floor net ~rx_cap ~queued_bytes:(backlog + !cum);
              f.f_rexmit <- true;
              conn.retries <- conn.retries + 1;
              net.net_retransmissions <- net.net_retransmissions + 1;
              push_wire conn remote faults f
            end)
          frames
      end
    end
  end

(* Per-conn retransmitter: a daemon thread that owns the RTO clock. It
   parks (suspended, no pending timer) whenever nothing is in flight so
   the event queue can drain and the engine can quiesce; senders re-arm
   it via [wake_rtx] when they enqueue. Daemons must not raise, so
   giving up marks the conn dead and wakes the blocked senders, which
   raise [Timeout] from their own context. *)
let rec rtx_loop conn remote faults =
  let engine = conn.stack.net.engine in
  if Queue.is_empty conn.sendq || conn.dead then begin
    Engine.suspend ~name:"tcp.rtx.park" (fun wake -> conn.rtx_wake <- Some wake);
    conn.rtx_wake <- None;
    rtx_loop conn remote faults
  end
  else begin
    let f = Queue.peek conn.sendq in
    let deadline = Time.add f.f_sent_at (cur_rto conn f) in
    let now = Engine.now engine in
    if Time.( < ) now deadline then begin
      Engine.suspend ~name:"tcp.rtx.wait" (fun wake ->
          conn.rtx_wake <- Some wake;
          Engine.at engine deadline (fun () -> wake ()));
      conn.rtx_wake <- None;
      rtx_loop conn remote faults
    end
    else begin
      on_expiry conn remote faults;
      rtx_loop conn remote faults
    end
  end

let ensure_rtx conn remote faults =
  if not conn.rtx_alive then begin
    conn.rtx_alive <- true;
    Engine.spawn conn.stack.net.engine ~daemon:true
      ~name:(Printf.sprintf "tcp.rtx.%d->%d" (host_id conn) (host_id remote))
      (fun () -> rtx_loop conn remote faults)
  end

(* Windowed reliable send: blocks only for window admission (and for
   the session handshake after a restart); delivery and recovery are
   driven by the retransmitter daemon, so a sender may exit with frames
   still in flight and the transfer completes behind it. *)
let reliable_send conn remote faults data =
  let net = conn.stack.net in
  install_fault_hooks net faults;
  ensure_epoch_baseline conn remote faults;
  session_resync conn remote faults;
  let src = host_id conn and dst = host_id remote in
  let fail msg = raise (Timeout { msg; attempts = conn.consec_fail }) in
  if conn.dead then
    fail (Printf.sprintf "Tcpnet.send: connection %d->%d is dead" src dst);
  if
    not (Simnet.Faults.node_up faults src && Simnet.Faults.node_up faults dst)
  then begin
    mark_dead conn remote;
    fail (Printf.sprintf "Tcpnet.send: %d->%d unreachable" src dst)
  end;
  while
    (not (conn_unreachable conn)) && Queue.length conn.sendq >= net.window
  do
    Engine.suspend ~name:"tcp.window" (fun wake ->
        conn.ack_waiters <- wake :: conn.ack_waiters)
  done;
  if conn_unreachable conn then begin
    mark_dead conn remote;
    fail (Printf.sprintf "Tcpnet.send: %d->%d unreachable" src dst)
  end;
  let total = Bytes.length data in
  let mtu = (Fabric.link net.fabric).Netparams.hw_mtu in
  let seq = conn.tx_seq in
  conn.tx_seq <- seq + 1;
  conn.inflight_bytes <- conn.inflight_bytes + total;
  let f =
    {
      f_seq = seq;
      f_data = data;
      f_crc = Simnet.Checksum.crc32 data;
      f_fragments = max 1 ((total + mtu - 1) / mtu);
      f_len = total;
      f_sent_at = Engine.now net.engine;
      f_floor =
        frame_floor net ~rx_cap:(rx_cap_of net remote)
          ~queued_bytes:conn.inflight_bytes;
      f_rexmit = false;
    }
  in
  Queue.push f conn.sendq;
  let depth = Queue.length conn.sendq in
  if depth > conn.peak_sendq then conn.peak_sendq <- depth;
  ensure_rtx conn remote faults;
  push_wire conn remote faults f;
  wake_rtx conn

(* Copies the slices, in order, into one fresh buffer: the only copy a
   send makes of the caller's bytes. It becomes the fast path's inbox
   chunk or the reliable frame's payload, and is taken before any
   blocking, so the caller may reuse its buffers as soon as the call
   returns. *)
let stage slices =
  let total =
    List.fold_left
      (fun n (buf, off, len) ->
        if off < 0 || len < 0 || off > Bytes.length buf - len then
          invalid_arg "Tcpnet.send_group: out of bounds";
        n + len)
      0 slices
  in
  let data = Bytes.create total in
  ignore
    (List.fold_left
       (fun pos (buf, off, len) ->
         Bytes.blit buf off data pos len;
         pos + len)
       0 slices);
  data

let send_group conn slices =
  let data = stage slices in
  let remote =
    match conn.peer with
    | Some p -> p
    | None -> invalid_arg "Tcpnet.send: not connected"
  in
  match Fabric.faults conn.stack.net.fabric with
  | None -> fast_transmit conn remote data
  | Some faults -> reliable_send conn remote faults data

let send conn data = send_group conn [ (data, 0, Bytes.length data) ]

let is_dead conn = conn.dead
let retries conn = conn.retries
let consecutive_failures conn = conn.consec_fail
let duplicate_frames conn = conn.dup_frames
let inbox_peak conn = conn.peak_inbox
let sendq_peak conn = conn.peak_sendq

let queue_peaks net =
  List.fold_left
    (fun (inb, sq) c -> (max inb c.peak_inbox, max sq c.peak_sendq))
    (0, 0) net.conns

let available conn = Bytequeue.length conn.inbox

let recv_raw ?deadline conn buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Tcpnet.recv: out of bounds";
  let engine = conn.stack.net.engine in
  let got = ref 0 in
  while !got < len do
    let taken = Bytequeue.pop_into conn.inbox buf ~off:(off + !got) ~len:(len - !got) in
    got := !got + taken;
    if !got < len then begin
      (* Nothing buffered and the peer's socket state is gone: the rest
         of this read can never arrive (a crashed sender's in-flight
         frames died with it; a restart resets the stream). Waiting
         would park this thread forever — fail it so the layer above
         can abandon the partial message and replay whole packets. *)
      if conn_unreachable conn then
        raise
          (Timeout
             {
               msg = "Tcpnet.recv: peer unreachable";
               attempts = conn.consec_fail;
             });
      (match deadline with
      | Some d when Time.( <= ) d (Engine.now engine) ->
          raise (Timeout { msg = "Tcpnet.recv: timed out"; attempts = 0 })
      | _ -> ());
      let timed_out = ref false in
      Engine.suspend ~name:"tcp.recv" (fun wake ->
          conn.readers <- (fun () -> wake ()) :: conn.readers;
          match deadline with
          | Some d ->
              Engine.at engine d (fun () ->
                  timed_out := true;
                  wake ())
          | None -> ());
      if !timed_out && Bytequeue.length conn.inbox = 0 then
        raise (Timeout { msg = "Tcpnet.recv: timed out"; attempts = 0 })
    end
  done

(* A completed read is handed to the application: record it. *)
let note_delivery conn ~bytes =
  let src = match conn.peer with Some p -> p.stack.host.Node.id | None -> -1 in
  Engine.note_delivery conn.stack.net.engine ~src ~dst:conn.stack.host.Node.id
    ~bytes

let recv ?timeout conn buf ~off ~len =
  let deadline =
    match timeout with
    | None -> None
    | Some span -> Some (Time.add (Engine.now conn.stack.net.engine) span)
  in
  recv_raw ?deadline conn buf ~off ~len;
  Engine.sleep Netparams.tcp_recv_overhead;
  note_delivery conn ~bytes:len

let recv_group conn slices =
  List.iter (fun (buf, off, len) -> recv_raw conn buf ~off ~len) slices;
  Engine.sleep Netparams.tcp_recv_overhead;
  note_delivery conn
    ~bytes:(List.fold_left (fun acc (_, _, len) -> acc + len) 0 slices)
