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

(* One reliable-mode frame in flight: a payload of at most one MSS, its
   integrity check and the retransmission bookkeeping the
   selective-repeat sender needs. *)
type frame = {
  f_seq : int;
  f_data : Bytes.t;
  f_crc : int;
  mutable f_sent_at : Time.t; (* last (re)transmission instant *)
  mutable f_floor : Time.span; (* serialization lower bound for the RTO *)
  mutable f_rexmit : bool; (* retransmitted at least once (Karn's rule) *)
  mutable f_sacked : bool; (* the receiver reported it held: never resent *)
  mutable f_lost : bool; (* RACK marked it lost; its next resend clears it *)
}

type conn = {
  stack : t;
  mutable peer : conn option;
  inbox : Bytequeue.t;
  mutable readers : (int * (unit -> unit)) list;
      (* blocked readers, each with the bytes it still needs *)
  mutable data_hooks : (unit -> unit) list;
  mutable out_stream : Simnet.Stream.t option;
      (* lazily-built FIFO delivery pipeline toward the peer *)
  (* Reliability state, live only when the fabric has a fault plane
     attached (Fabric.set_faults); on the default fault-free path none
     of these fields is ever touched. *)
  mutable tx_seq : int; (* next frame sequence number to send *)
  mutable rx_next : int; (* next frame sequence number to accept *)
  mutable held : (int * Bytes.t) list;
      (* frames received past a hole, ascending seq, at most window - 1 *)
  mutable acked : int; (* highest cumulatively acked sent seq *)
  sendq : frame Queue.t; (* in-flight window, oldest first *)
  mutable rack_sent : Time.t;
      (* RACK: send instant of the most recently sent frame copy an ack
         echoed as delivered *)
  mutable rack_seq : int; (* its seq, or -1: no echo since the last reset *)
  mutable rack_rtt : Time.span; (* its round trip *)
  mutable min_rtt : Time.span; (* smallest echoed round trip since the reset *)
  mutable tlp_ref : Time.t; (* last ack progress or new frame sent *)
  mutable drained_at : Time.t; (* last instant [out_stream] emptied *)
  mutable tlp_out : bool; (* this flight's one tail-loss probe is spent *)
  mutable inflight_bytes : int;
  mutable wire_bytes : int;
      (* bytes pushed into [out_stream] and not yet delivered: resends and
         frames of a reset epoch included *)
  mutable srtt : float; (* smoothed RTT, microseconds *)
  mutable rttvar : float; (* RTT mean deviation, microseconds *)
  mutable have_rtt : bool;
  mutable backoff : int; (* RTO doublings since the last ack progress *)
  mutable ack_waiters : (unit -> unit) list; (* window-admission waiters *)
  mutable rtx_wake : (unit -> unit) option; (* retransmitter daemon wake *)
  mutable rtx_armed : bool; (* an RTO timer is pending at [rtx_timer] *)
  mutable rtx_timer : Time.t;
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
  window : int; (* selective-repeat window, in frames *)
  max_retries : int; (* RTO expiries before a conn is declared dead *)
  mutable conns : conn list; (* every end ever created on this net *)
  mutable fault_hooks : bool; (* crash/restart listeners installed *)
  mutable net_retransmissions : int;
  mutable net_crc_rejects : int;
  mutable net_handshakes : int; (* crash-epoch session resyncs performed *)
  mutable net_rto_expiries : int;
  mutable net_rack_marks : int;
  mutable net_probes : int;
}

let make_net ?(window = 24) ?(max_retries = 12) engine fabric =
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
    net_rto_expiries = 0;
    net_rack_marks = 0;
    net_probes = 0;
  }

let net_stats net = (net.net_retransmissions, net.net_crc_rejects)
let net_handshakes net = net.net_handshakes

type recovery = {
  rto_expiries : int;
  rack_marks : int;
  probes : int;
  duplicate_arrivals : int;
}

let recovery_stats net =
  {
    rto_expiries = net.net_rto_expiries;
    rack_marks = net.net_rack_marks;
    probes = net.net_probes;
    duplicate_arrivals =
      List.fold_left (fun a c -> a + c.dup_frames) 0 net.conns;
  }

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
    held = [];
    acked = -1;
    sendq = Queue.create ();
    rack_sent = Time.zero;
    rack_seq = -1;
    rack_rtt = 0;
    min_rtt = 0;
    tlp_ref = Time.zero;
    drained_at = Time.zero;
    tlp_out = false;
    inflight_bytes = 0;
    wire_bytes = 0;
    srtt = 0.0;
    rttvar = 0.0;
    have_rtt = false;
    backoff = 0;
    ack_waiters = [];
    rtx_wake = None;
    rtx_armed = false;
    rtx_timer = Time.zero;
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
  List.iter (fun (_, wake) -> wake ()) readers;
  List.iter (fun hook -> hook ()) conn.data_hooks

(* In-order reliable delivery: a frame carries at most one MSS, so only
   the readers whose whole remainder is now buffered are woken; the
   others would take a partial read and block again. *)
let wake_ready_readers conn =
  let ready (need, _) = need <= Bytequeue.length conn.inbox in
  if List.exists ready conn.readers then begin
    let woken, waiting = List.partition ready conn.readers in
    conn.readers <- waiting;
    List.iter (fun (_, wake) -> wake ()) woken
  end;
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
(* Reliable mode: selective-repeat window (SACK), time-based loss     *)
(* detection (RACK-TLP), adaptive RTO and crash-epoch session resync. *)
(* Only runs when a fault plane is attached to the fabric; the fast   *)
(* path above is never touched.                                       *)
(* ------------------------------------------------------------------ *)

let wake_acked conn =
  let waiters = conn.ack_waiters in
  conn.ack_waiters <- [];
  List.iter (fun w -> w ()) waiters

let wake_rtx conn = match conn.rtx_wake with Some w -> w () | None -> ()

(* Ensures the retransmitter is woken by [at]. A pending timer at or
   before [at] already does that: the retransmitter re-evaluates its
   deadline whenever it wakes, so one timer covers many acks. A later
   pending timer is superseded and fires as a no-op. A deadline already
   reached wakes it now. *)
let arm_rtx conn at =
  if Time.( <= ) at (Engine.now conn.stack.net.engine) then wake_rtx conn
  else if not (conn.rtx_armed && Time.( <= ) conn.rtx_timer at) then begin
    conn.rtx_armed <- true;
    conn.rtx_timer <- at;
    Engine.at conn.stack.net.engine at (fun () ->
        if conn.rtx_armed && Time.equal conn.rtx_timer at then begin
          conn.rtx_armed <- false;
          wake_rtx conn
        end)
  end

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

(* The RACK and TLP state of a conn describes frames of the current
   epoch only: a reset or a session resync forgets it, so no deadline is
   ever computed from a frame of the old epoch. *)
let forget_rack c =
  c.rack_seq <- -1;
  c.tlp_out <- false

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
    c.held <- [];
    c.inflight_bytes <- 0;
    c.acked <- c.tx_seq - 1;
    forget_rack c;
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
   throttled-but-lossless receiver looks like a dead one and the
   retransmitter storms it. Without a cap the floor is unchanged.
   Callers count the larger of the unacked bytes and the bytes still in
   the out stream ([wire_bytes]): after a socket reset or a round of
   resends the stream holds more than the window, and a floor blind to
   that backlog expires early and resends into it again. *)
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

(* Inserts a frame into the ascending held list. *)
let rec hold seq data = function
  | ((s, _) as h) :: rest when s < seq -> h :: hold seq data rest
  | l -> (seq, data) :: l

(* The hole at [rx_next] filled: held frames that now continue the
   sequence move to the inbox in order. *)
let rec drain_held c =
  match c.held with
  | (s, data) :: rest when s = c.rx_next ->
      c.held <- rest;
      c.rx_next <- s + 1;
      push_inbox c data;
      drain_held c
  | _ -> ()

(* RACK (RFC 8985): a frame sent before the most recently sent frame
   copy known delivered is lost once that copy's round trip plus a
   reordering window of [min_rtt / 4] has passed since the frame's own
   last transmission. Marks the frames already due and returns whether
   any marked frame awaits its resend, with the earliest deadline still
   pending ([max_int] if none). A resent frame is sent after the copy
   that marked it, so it is marked again only once a frame sent after
   the resend is delivered: a lost resend is found the same way. *)
let rack_detect conn now =
  let net = conn.stack.net in
  let lost = ref false and next = ref max_int in
  if conn.rack_seq >= 0 then begin
    let window = Time.span_add conn.rack_rtt (conn.min_rtt / 4) in
    Queue.iter
      (fun f ->
        if f.f_lost then lost := true
        else if
          (not f.f_sacked)
          && (Time.( < ) f.f_sent_at conn.rack_sent
             || (Time.equal f.f_sent_at conn.rack_sent
                && f.f_seq < conn.rack_seq))
        then begin
          let due = Time.add f.f_sent_at window in
          if Time.( <= ) due now then begin
            f.f_lost <- true;
            net.net_rack_marks <- net.net_rack_marks + 1;
            lost := true
          end
          else if due < !next then next := due
        end)
      conn.sendq
  end;
  (!lost, !next)

(* RTO deadline of the oldest frame in flight. *)
let rto_deadline conn =
  let head = Queue.peek conn.sendq in
  Time.add head.f_sent_at (cur_rto conn head)

(* TLP (RFC 8985): with no ack progress and no new frame for two
   smoothed RTTs, one probe per flight resends the highest unSACKed
   frame, so a lost tail raises the ack that RACK needs. The probe also
   waits until every frame sent has left the out stream and a capped
   receiver's drain ({!Simnet.Faults.slow_receiver}), plus one SRTT for
   the last ack to come back (an SRTT includes the reverse hop): while
   frames are still in the stream their acks are still to come, a probe
   would only queue behind them, and an SRTT learnt from small frames
   would fire it before one MSS frame can be acked. No probe before the
   first RTT sample or after an RTO expiry without progress, and none
   that would not beat the RTO, which resends the tail anyway. (The
   retransmitter resends RACK-marked frames before it looks at the
   probe, so none goes out while a marked frame awaits its resend.) *)
let tlp_deadline conn ~rto_at =
  if
    conn.tlp_out || (not conn.have_rtt) || conn.consec_fail > 0
    || conn.wire_bytes > 0
  then max_int
  else
    let srtt = Time.us conn.srtt in
    let drained =
      match conn.peer with
      | Some remote -> max conn.drained_at remote.rx_slot
      | None -> conn.drained_at
    in
    let at =
      max
        (Time.add conn.tlp_ref (Time.span_mul srtt 2))
        (Time.add drained srtt)
    in
    if Time.( < ) at rto_at then at else max_int

(* The retransmitter's next deadline: the head's RTO, the earliest
   reordering window and the probe share the one timer. *)
let next_deadline conn ~reorder_at =
  let rto_at = rto_deadline conn in
  min rto_at (min reorder_at (tlp_deadline conn ~rto_at))

(* The ack's timestamp echo (RFC 7323) names the frame copy that
   triggered it, so its round trip is unambiguous even for a resend. *)
let rack_update conn now ~sent ~seq =
  let rtt = Time.diff now sent in
  if conn.rack_seq < 0 || rtt < conn.min_rtt then conn.min_rtt <- rtt;
  if
    conn.rack_seq < 0
    || Time.( < ) conn.rack_sent sent
    || (Time.equal sent conn.rack_sent && seq > conn.rack_seq)
  then begin
    conn.rack_sent <- sent;
    conn.rack_seq <- seq;
    conn.rack_rtt <- rtt
  end

(* An ack moves the cumulative point, marks the frames the receiver
   reported held (SACK) and feeds its echo to RACK. Resends never run
   here — this is an event callback and [transmit]'s callers sleep — so
   when RACK marks a loss the ack path only wakes the retransmitter;
   otherwise, after progress or with a reordering window pending, it
   makes sure the retransmitter's timer covers the new deadlines. An
   ack that cumulatively acks or newly SACKs a frame is progress: it
   restarts the probe clock, and a cumulative one opens a new flight.
   The send queue and the held set both ascend, so one merge walk marks
   the SACKed frames. *)
let rec apply_ack conn ack_upto sacks ~sent ~seq =
  let now = Engine.now conn.stack.net.engine in
  let progress = ref false in
  if sacks <> [] then begin
    let rest = ref sacks in
    Queue.iter
      (fun f ->
        let rec skip = function
          | s :: tl when s < f.f_seq -> skip tl
          | l -> l
        in
        match skip !rest with
        | s :: tl when s = f.f_seq ->
            if not f.f_sacked then begin
              f.f_sacked <- true;
              f.f_lost <- false;
              progress := true
            end;
            rest := tl
        | l -> rest := l)
      conn.sendq
  end;
  if ack_upto > conn.acked then begin
    conn.acked <- ack_upto;
    while
      (not (Queue.is_empty conn.sendq))
      && (Queue.peek conn.sendq).f_seq <= ack_upto
    do
      let f = Queue.pop conn.sendq in
      conn.inflight_bytes <- conn.inflight_bytes - Bytes.length f.f_data;
      (* Karn's rule: never sample RTT from a retransmitted frame. *)
      if not f.f_rexmit then rtt_sample conn (Time.diff now f.f_sent_at)
    done;
    conn.backoff <- 0;
    conn.consec_fail <- 0;
    conn.tlp_out <- false;
    progress := true;
    wake_acked conn
  end;
  if !progress then conn.tlp_ref <- now;
  rack_update conn now ~sent ~seq;
  if not (Queue.is_empty conn.sendq) then begin
    let lost, reorder_at = rack_detect conn now in
    if lost then wake_rtx conn
    else if !progress || reorder_at < max_int then
      arm_rtx conn (next_deadline conn ~reorder_at)
  end

(* Cumulative ack plus the receiver's held set, snapshotted now, and the
   echo of the frame copy that triggered it: rides the reverse link one
   hop later and is itself subject to the plane. *)
and schedule_ack conn remote faults ~sent ~seq =
  let net = conn.stack.net in
  let engine = net.engine in
  let fabric_name = Fabric.name net.fabric in
  let src = host_id conn and dst = host_id remote in
  let ack_upto = remote.rx_next - 1 in
  let sacks = List.map fst remote.held in
  Engine.at engine
    (Time.add (Engine.now engine) (hop_latency net))
    (fun () ->
      match
        Simnet.Faults.frame_verdict faults ~fabric:fabric_name ~src:dst
          ~dst:src
      with
      | Simnet.Faults.Deliver | Simnet.Faults.Duplicate ->
          apply_ack conn ack_upto sacks ~sent ~seq
      | Simnet.Faults.Delay span ->
          Engine.at engine
            (Time.add (Engine.now engine) span)
            (fun () -> apply_ack conn ack_upto sacks ~sent ~seq)
      | Simnet.Faults.Drop | Simnet.Faults.Corrupt -> ())

(* Ship one frame copy toward the peer, its kernel entry already paid;
   the receiver-side fate (verdict, CRC check, in-order delivery or
   hold, cumulative ack with the held set and this copy's send instant)
   runs at delivery time. *)
and transmit conn remote faults f =
  let net = conn.stack.net in
  let engine = net.engine in
  let fabric_name = Fabric.name net.fabric in
  let src = host_id conn and dst = host_id remote in
  let sent = Engine.now engine in
  f.f_sent_at <- sent;
  conn.wire_bytes <- conn.wire_bytes + Bytes.length f.f_data;
  Simnet.Stream.push (out_stream conn remote)
    ~bytes_count:(Bytes.length f.f_data)
    ~on_delivered:(fun () ->
      conn.wire_bytes <- conn.wire_bytes - Bytes.length f.f_data;
      if conn.wire_bytes = 0 then begin
        conn.drained_at <- Engine.now engine;
        (* The probe may be due one SRTT from now. *)
        if not (Queue.is_empty conn.sendq) then
          arm_rtx conn (next_deadline conn ~reorder_at:max_int)
      end;
      let process data =
        if Simnet.Checksum.crc32 data <> f.f_crc then begin
          (* Detected corruption: discard silently, no ack — the
             sender recovers it as a loss. *)
          remote.crc_rejects <- remote.crc_rejects + 1;
          net.net_crc_rejects <- net.net_crc_rejects + 1
        end
        else begin
          let next = remote.rx_next in
          if f.f_seq = next then begin
            remote.rx_next <- next + 1;
            push_inbox remote data;
            drain_held remote;
            wake_ready_readers remote
          end
          else if
            f.f_seq > next
            && f.f_seq < next + net.window
            && not (List.mem_assoc f.f_seq remote.held)
          then remote.held <- hold f.f_seq data remote.held
          else remote.dup_frames <- remote.dup_frames + 1;
          schedule_ack conn remote faults ~sent ~seq:f.f_seq
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
                (Time.bytes_at_rate ~bytes_count:(Bytes.length f.f_data)
                   ~mb_per_s:cap)
            in
            remote.rx_slot <- fin;
            Engine.at engine fin run
      in
      match
        Simnet.Faults.frame_verdict faults ~fabric:fabric_name ~src ~dst
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
          forget_rack c;
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

(* Resends [frames], oldest first, on the retransmitter's own thread;
   each resend pays its own kernel entry. *)
let resend conn remote faults frames =
  let net = conn.stack.net in
  let rx_cap = rx_cap_of net remote in
  (* A capped receiver drains the original copies too: the resent
     duplicates queue behind everything still unacked, so their floors
     must cover the whole in-flight backlog or the spurious expiry
     repeats until backoff catches up. *)
  let backlog = match rx_cap with Some _ -> conn.inflight_bytes | None -> 0 in
  let cum = ref 0 in
  List.iter
    (fun f ->
      (* Acks may land between resends; skip what they covered. *)
      if f.f_seq > conn.acked && (not f.f_sacked) && not conn.dead then begin
        let len = Bytes.length f.f_data in
        cum := !cum + len;
        f.f_floor <-
          frame_floor net ~rx_cap
            ~queued_bytes:(max (backlog + !cum) (conn.wire_bytes + len));
        f.f_rexmit <- true;
        conn.retries <- conn.retries + 1;
        net.net_retransmissions <- net.net_retransmissions + 1;
        Engine.sleep Netparams.tcp_send_overhead;
        (* Cleared only now: until this copy leaves, an ack must not
           mark the frame again from its previous copy. *)
        f.f_lost <- false;
        transmit conn remote faults f
      end)
    frames

(* RACK-marked frames, oldest first. *)
let resend_lost conn remote faults =
  resend conn remote faults
    (Queue.fold (fun acc f -> if f.f_lost then f :: acc else acc) [] conn.sendq
    |> List.rev)

(* The tail-loss probe: the highest unSACKed frame (the head is never
   SACKed, so there is one). A probe toward a crashed host is spent
   unsent; the RTO then finds the host down, as without a probe. *)
let send_probe conn remote faults =
  let net = conn.stack.net in
  conn.tlp_out <- true;
  if
    Simnet.Faults.node_up faults (host_id conn)
    && Simnet.Faults.node_up faults (host_id remote)
  then begin
    let last =
      Queue.fold
        (fun acc f -> if f.f_sacked then acc else f)
        (Queue.peek conn.sendq) conn.sendq
    in
    net.net_probes <- net.net_probes + 1;
    resend conn remote faults [ last ]
  end

(* One RTO expiry on the oldest in-flight frame: resync if an epoch
   moved, fail fast if a host is down, give up past the retry budget,
   otherwise resend every frame the receiver has not reported held,
   oldest first. *)
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
      net.net_rto_expiries <- net.net_rto_expiries + 1;
      if conn.consec_fail >= net.max_retries then mark_dead conn remote
      else begin
        conn.backoff <- min (conn.backoff + 1) 10;
        resend conn remote faults (List.of_seq (Queue.to_seq conn.sendq))
      end
    end
  end

(* Per-conn retransmitter: a daemon thread that owns the one timer of
   the conn — the head's RTO, RACK's reordering windows and the
   tail-loss probe. Each time it wakes it re-runs RACK's marking and
   does the first thing due: resend the marked frames, send the probe,
   or handle an RTO expiry; otherwise it sleeps until the earliest
   deadline. It parks (suspended, no pending timer) whenever nothing is
   in flight so the event queue can drain and the engine can quiesce;
   senders re-arm it via [wake_rtx] when they enqueue, and acks when
   RACK marks a loss. Daemons must not raise, so giving up marks the
   conn dead and wakes the blocked senders, which raise [Timeout] from
   their own context. *)
let rec rtx_loop conn remote faults =
  let engine = conn.stack.net.engine in
  if Queue.is_empty conn.sendq || conn.dead then begin
    Engine.suspend ~name:"tcp.rtx.park" (fun wake -> conn.rtx_wake <- Some wake);
    conn.rtx_wake <- None
  end
  else begin
    let now = Engine.now engine in
    let lost, reorder_at = rack_detect conn now in
    if lost then resend_lost conn remote faults
    else begin
      let rto_at = rto_deadline conn in
      let tlp_at = tlp_deadline conn ~rto_at in
      if Time.( <= ) tlp_at now then send_probe conn remote faults
      else if Time.( <= ) rto_at now then on_expiry conn remote faults
      else begin
        let deadline = min rto_at (min reorder_at tlp_at) in
        Engine.suspend ~name:"tcp.rtx.wait" (fun wake ->
            conn.rtx_wake <- Some wake;
            arm_rtx conn deadline);
        conn.rtx_wake <- None
      end
    end
  end;
  rtx_loop conn remote faults

let ensure_rtx conn remote faults =
  if not conn.rtx_alive then begin
    conn.rtx_alive <- true;
    Engine.spawn conn.stack.net.engine ~daemon:true
      ~name:(Printf.sprintf "tcp.rtx.%d->%d" (host_id conn) (host_id remote))
      (fun () -> rtx_loop conn remote faults)
  end

(* Windowed reliable send of one [send_group], already cut into
   segments of at most one MSS: each becomes a frame with its own seq,
   CRC, SACK mark and RTO floor, and waits for its own window slot. The
   kernel entry is paid once, before the first frame, as on the fast
   path. Blocks only for window admission (and for the session
   handshake after a restart); delivery and recovery are driven by the
   retransmitter daemon, so a sender may exit with frames still in
   flight and the transfer completes behind it. *)
let reliable_send conn remote faults segments =
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
  Array.iteri
    (fun i data ->
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
      let seq = conn.tx_seq in
      conn.tx_seq <- seq + 1;
      conn.inflight_bytes <- conn.inflight_bytes + Bytes.length data;
      let f =
        {
          f_seq = seq;
          f_data = data;
          f_crc = Simnet.Checksum.crc32 data;
          f_sent_at = Engine.now net.engine;
          f_floor =
            frame_floor net ~rx_cap:(rx_cap_of net remote)
              ~queued_bytes:
                (max conn.inflight_bytes (conn.wire_bytes + Bytes.length data));
          f_rexmit = false;
          f_sacked = false;
          f_lost = false;
        }
      in
      Queue.push f conn.sendq;
      let depth = Queue.length conn.sendq in
      if depth > conn.peak_sendq then conn.peak_sendq <- depth;
      ensure_rtx conn remote faults;
      if i = 0 then Engine.sleep Netparams.tcp_send_overhead;
      transmit conn remote faults f;
      conn.tlp_ref <- Engine.now net.engine;
      (* Only the head's deadline is the daemon's to watch, and a parked
         daemon has an empty queue: a frame behind the head needs no
         wake. *)
      match Queue.peek_opt conn.sendq with
      | Some head when head == f -> wake_rtx conn
      | _ -> ())
    segments

(* Copies the slices, in order, straight into fresh segment buffers of
   [seg] bytes each (the last one shorter; one empty segment for an
   empty send): the only copy a send makes of the caller's bytes. A
   segment becomes the fast path's inbox chunk or a reliable frame's
   payload, and is taken before any blocking, so the caller may reuse
   its buffers as soon as the call returns. *)
let stage ~seg slices =
  let total =
    List.fold_left
      (fun n (buf, off, len) ->
        if off < 0 || len < 0 || off > Bytes.length buf - len then
          invalid_arg "Tcpnet.send_group: out of bounds";
        n + len)
      0 slices
  in
  let count = if total <= seg then 1 else ((total - 1) / seg) + 1 in
  let segments =
    Array.init count (fun i -> Bytes.create (min seg (total - (i * seg))))
  in
  ignore
    (List.fold_left
       (fun pos (buf, off, len) ->
         let copied = ref 0 in
         while !copied < len do
           let at = pos + !copied in
           let dst = segments.(at / seg) and dst_off = at mod seg in
           let n = min (len - !copied) (Bytes.length dst - dst_off) in
           Bytes.blit buf (off + !copied) dst dst_off n;
           copied := !copied + n
         done;
         pos + len)
       0 slices);
  segments

(* Without a fault plane the whole send is one chunk; under one it is
   cut at the MSS, the fabric's hardware MTU. *)
let send_group conn slices =
  let net = conn.stack.net in
  let faults = Fabric.faults net.fabric in
  let seg =
    match faults with
    | None -> max_int
    | Some _ -> (Fabric.link net.fabric).Netparams.hw_mtu
  in
  let segments = stage ~seg slices in
  let remote =
    match conn.peer with
    | Some p -> p
    | None -> invalid_arg "Tcpnet.send: not connected"
  in
  match faults with
  | None -> fast_transmit conn remote segments.(0)
  | Some faults -> reliable_send conn remote faults segments

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
          conn.readers <- (len - !got, fun () -> wake ()) :: conn.readers;
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
