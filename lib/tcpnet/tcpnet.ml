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

module Recovery = Recovery

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
  recovery : Recovery.t; (* the sender's frames in flight and its policy *)
  mutable rx_next : int; (* next frame sequence number to accept *)
  mutable held : (int * Bytes.t) list;
      (* frames received past a hole, ascending seq, at most window - 1 *)
  mutable drained_at : Time.t; (* last instant [out_stream] emptied *)
  mutable wire_bytes : int;
      (* bytes pushed into [out_stream] and not yet delivered: resends and
         frames of a reset epoch included *)
  mutable ack_waiters : (unit -> unit) list; (* window-admission waiters *)
  mutable rtx_wake : (unit -> unit) option; (* retransmitter daemon wake *)
  mutable rtx_armed : bool; (* a timer is pending at [rtx_timer] *)
  mutable rtx_timer : Time.t;
  mutable rtx_alive : bool;
  mutable peer_epoch_seen : int; (* peer restart epoch at last session sync *)
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
  mutable net_handshakes : int; (* crash-epoch session resyncs performed *)
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
    net_handshakes = 0;
  }

let sum net f = List.fold_left (fun a c -> a + f c) 0 net.conns

let net_stats net =
  ( sum net (fun c -> Recovery.retries c.recovery),
    sum net (fun c -> c.crc_rejects) )

let net_handshakes net = net.net_handshakes

type recovery = {
  rto_expiries : int;
  rack_marks : int;
  probes : int;
  duplicate_arrivals : int;
}

let recovery_stats net =
  {
    rto_expiries = sum net (fun c -> Recovery.rto_expiries c.recovery);
    rack_marks = sum net (fun c -> Recovery.rack_marks c.recovery);
    probes = sum net (fun c -> Recovery.probes c.recovery);
    duplicate_arrivals = sum net (fun c -> c.dup_frames);
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
    recovery = Recovery.create ~max_retries:stack.net.max_retries;
    rx_next = 0;
    held = [];
    drained_at = Time.zero;
    wire_bytes = 0;
    ack_waiters = [];
    rtx_wake = None;
    rtx_armed = false;
    rtx_timer = Time.zero;
    rtx_alive = false;
    peer_epoch_seen = -1;
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
(* path above is never touched. [Recovery] decides what to resend and *)
(* when; this module transmits, schedules acks and runs the timer.    *)
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
let wake_both conn remote =
  wake_acked conn;
  wake_acked remote;
  wake_rtx conn;
  wake_rtx remote;
  wake_readers conn;
  wake_readers remote

let mark_dead conn remote =
  conn.dead <- true;
  remote.dead <- true;
  wake_both conn remote

(* A read (or a window wait) on this end cannot make progress: the conn
   gave up, or either host is down right now. A blocked receiver must
   not outwait this — the missing bytes died in the crashed host's
   socket buffer and will never be retransmitted. *)
let both_up faults a b =
  Simnet.Faults.node_up faults (host_id a)
  && Simnet.Faults.node_up faults (host_id b)

let conn_unreachable conn =
  conn.dead
  ||
  match (Fabric.faults conn.stack.net.fabric, conn.peer) with
  | None, _ -> false
  | Some faults, Some peer -> not (both_up faults conn peer)
  | Some faults, None -> not (Simnet.Faults.node_up faults (host_id conn))

(* Socket reset at restart: the rebooted host's TCP state died with it,
   so both directions of every conn touching it start over — in-flight
   frames and unconsumed buffered bytes of the old epoch are discarded
   (as with ECONNRESET) and the session layer above replays whole
   packets from its origin-side logs. Sequence counters keep running so
   the survivor's cursor arithmetic stays monotonic. Idempotent: the
   restart hook visits both ends of a pair. *)
let reset_socket conn remote =
  let purge c =
    Recovery.reset c.recovery ~purge:true;
    c.held <- [];
    c.rx_slot <- Time.zero;
    Bytequeue.clear c.inbox
  in
  purge conn;
  purge remote;
  conn.rx_next <- Recovery.next_seq remote.recovery;
  remote.rx_next <- Recovery.next_seq conn.recovery;
  wake_both conn remote

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
          | Some peer when host_id c = node || host_id peer = node -> f c peer
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
              | Some peer when c.dead && both_up faults c peer ->
                  reset_socket c peer;
                  c.dead <- false;
                  peer.dead <- false
              | _ -> ())
            net.conns)
  end

(* Serialization lower bound for one frame's RTO, given every byte
   queued ahead of it (itself included): four small-packet hops, the
   queued bytes at a conservative 8 MB/s and scheduling slack. A later
   frame's ack cannot arrive before the earlier frames have drained the
   wire, so the floor covers the whole backlog or a loss-free world
   would retransmit spuriously. A receiver whose drain the plane caps
   ({!Simnet.Faults.slow_receiver}) is one more serial stage, so the
   floor adds the backlog at the capped rate, or a throttled but
   lossless receiver looks dead and the retransmitter storms it.
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

(* The probe's drain input: when the out stream, and a capped
   receiver's drain, last emptied; [None] while bytes are still in it. *)
let drained conn =
  if conn.wire_bytes > 0 then None
  else
    let slot = match conn.peer with Some p -> p.rx_slot | None -> Time.zero in
    Some (max conn.drained_at slot)

(* An ack goes to [Recovery]. Resends never run here — this is an event
   callback and [transmit]'s callers sleep — so the ack path only wakes
   the window waiters on cumulative progress and makes sure the
   retransmitter runs by the instant [Recovery] names. *)
let apply_ack conn ack_upto sacks ~sent ~seq =
  let r = conn.recovery in
  let acked = Recovery.acked r in
  let at =
    Recovery.on_ack r
      ~now:(Engine.now conn.stack.net.engine)
      ~upto:ack_upto ~sacks ~sent ~seq ~drained:(drained conn)
  in
  if Recovery.acked r > acked then wake_acked conn;
  if at < max_int then arm_rtx conn at

(* Cumulative ack plus the receiver's held set, snapshotted now, and the
   echo of the frame copy that triggered it: rides the reverse link one
   hop later and is itself subject to the plane. *)
let schedule_ack conn remote faults ~sent ~seq =
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
let transmit conn remote faults (f : Recovery.frame) ~fresh =
  let net = conn.stack.net in
  let engine = net.engine in
  let fabric_name = Fabric.name net.fabric in
  let src = host_id conn and dst = host_id remote in
  let sent = Engine.now engine in
  Recovery.on_transmit conn.recovery f ~now:sent ~fresh;
  conn.wire_bytes <- conn.wire_bytes + Bytes.length f.data;
  Simnet.Stream.push (out_stream conn remote)
    ~bytes_count:(Bytes.length f.data)
    ~on_delivered:(fun () ->
      conn.wire_bytes <- conn.wire_bytes - Bytes.length f.data;
      if conn.wire_bytes = 0 then begin
        conn.drained_at <- Engine.now engine;
        (* The probe may be due one SRTT from now. *)
        let r = conn.recovery in
        let at = Recovery.next_deadline r ~drained:(drained conn) in
        if at < max_int then arm_rtx conn at
      end;
      let process data =
        if Simnet.Checksum.crc32 data <> f.crc then
          (* Detected corruption: discard silently, no ack — the
             sender recovers it as a loss. *)
          remote.crc_rejects <- remote.crc_rejects + 1
        else begin
          let next = remote.rx_next in
          if f.seq = next then begin
            remote.rx_next <- next + 1;
            push_inbox remote data;
            drain_held remote;
            wake_ready_readers remote
          end
          else if
            f.seq > next
            && f.seq < next + net.window
            && not (List.mem_assoc f.seq remote.held)
          then remote.held <- hold f.seq data remote.held
          else remote.dup_frames <- remote.dup_frames + 1;
          schedule_ack conn remote faults ~sent ~seq:f.seq
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
                (Time.bytes_at_rate ~bytes_count:(Bytes.length f.data)
                   ~mb_per_s:cap)
            in
            remote.rx_slot <- fin;
            Engine.at engine fin run
      in
      match
        Simnet.Faults.frame_verdict faults ~fabric:fabric_name ~src ~dst
      with
      | Simnet.Faults.Drop -> ()
      | Simnet.Faults.Deliver -> paced (fun () -> process f.data)
      | Simnet.Faults.Corrupt ->
          let garbled = Simnet.Faults.corrupt_copy faults f.data in
          paced (fun () -> process garbled)
      | Simnet.Faults.Duplicate ->
          paced (fun () -> process f.data);
          paced (fun () -> process f.data)
      | Simnet.Faults.Delay span ->
          Engine.at engine
            (Time.add (Engine.now engine) span)
            (fun () -> paced (fun () -> process f.data)))

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
  if need () && both_up faults conn remote then begin
    Engine.sleep (Time.span_mul (hop_latency net) 2);
    if need () && both_up faults conn remote then begin
      conn.peer_epoch_seen <- Simnet.Faults.epoch faults (host_id remote);
      remote.peer_epoch_seen <- Simnet.Faults.epoch faults (host_id conn);
      List.iter
        (fun c ->
          c.dead <- false;
          Recovery.reset c.recovery ~purge:false)
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
  let r = conn.recovery in
  let rx_cap = rx_cap_of net remote in
  (* A capped receiver drains the original copies too: the resent
     duplicates queue behind everything still unacked, so their floors
     must cover the whole in-flight backlog or the spurious expiry
     repeats until backoff catches up. *)
  let backlog =
    match rx_cap with Some _ -> Recovery.inflight_bytes r | None -> 0
  in
  let cum = ref 0 in
  List.iter
    (fun (f : Recovery.frame) ->
      (* Acks may land between resends; skip what they covered. *)
      if Recovery.resendable r f && not conn.dead then begin
        let len = Bytes.length f.data in
        cum := !cum + len;
        Recovery.on_resend r f
          ~floor:
            (frame_floor net ~rx_cap
               ~queued_bytes:(max (backlog + !cum) (conn.wire_bytes + len)));
        Engine.sleep Netparams.tcp_send_overhead;
        transmit conn remote faults f ~fresh:false
      end)
    frames

(* Per-conn retransmitter: a daemon thread that owns the conn's one
   timer and does what [Recovery.next] finds due each time it wakes. It
   parks with nothing in flight, so the engine can quiesce, until a
   sender enqueues. An expiry first resyncs if an epoch moved and fails
   fast if a host is down; a probe toward a crashed host is spent
   unsent. Daemons must not raise, so giving up marks the conn dead and
   wakes the blocked senders, which raise [Timeout] themselves. *)
let rec rtx_loop conn remote faults =
  let r = conn.recovery in
  let now = Engine.now conn.stack.net.engine in
  (match
     if conn.dead then Recovery.Idle
     else Recovery.next r ~now ~drained:(drained conn)
   with
  | Recovery.Idle ->
      Engine.suspend ~name:"tcp.rtx.park" (fun wake ->
          conn.rtx_wake <- Some wake);
      conn.rtx_wake <- None
  | Resend frames -> resend conn remote faults frames
  | Probe f ->
      if both_up faults conn remote then begin
        Recovery.probe_sent r;
        resend conn remote faults [ f ]
      end
  | Rto -> (
      session_resync conn remote faults;
      if (not conn.dead) && Recovery.in_flight r > 0 then
        if not (both_up faults conn remote) then mark_dead conn remote
        else
          match Recovery.expire r with
          | Dead -> mark_dead conn remote
          | Resend_all frames -> resend conn remote faults frames)
  | Wait deadline ->
      Engine.suspend ~name:"tcp.rtx.wait" (fun wake ->
          conn.rtx_wake <- Some wake;
          arm_rtx conn deadline);
      conn.rtx_wake <- None);
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
  let r = conn.recovery in
  install_fault_hooks net faults;
  ensure_epoch_baseline conn remote faults;
  session_resync conn remote faults;
  let src = host_id conn and dst = host_id remote in
  let fail msg = raise (Timeout { msg; attempts = Recovery.consec_fail r }) in
  if conn.dead then
    fail (Printf.sprintf "Tcpnet.send: connection %d->%d is dead" src dst);
  if not (both_up faults conn remote) then begin
    mark_dead conn remote;
    fail (Printf.sprintf "Tcpnet.send: %d->%d unreachable" src dst)
  end;
  Array.iteri
    (fun i data ->
      while
        (not (conn_unreachable conn)) && Recovery.in_flight r >= net.window
      do
        Engine.suspend ~name:"tcp.window" (fun wake ->
            conn.ack_waiters <- wake :: conn.ack_waiters)
      done;
      if conn_unreachable conn then begin
        mark_dead conn remote;
        fail (Printf.sprintf "Tcpnet.send: %d->%d unreachable" src dst)
      end;
      let len = Bytes.length data in
      let f =
        Recovery.on_send r ~now:(Engine.now net.engine) ~data
          ~crc:(Simnet.Checksum.crc32 data)
          ~floor:
            (frame_floor net ~rx_cap:(rx_cap_of net remote)
               ~queued_bytes:
                 (max (Recovery.inflight_bytes r + len) (conn.wire_bytes + len)))
      in
      let depth = Recovery.in_flight r in
      if depth > conn.peak_sendq then conn.peak_sendq <- depth;
      ensure_rtx conn remote faults;
      if i = 0 then Engine.sleep Netparams.tcp_send_overhead;
      transmit conn remote faults f ~fresh:true;
      (* Only the head's deadline is the daemon's to watch, and a parked
         daemon has an empty queue: a frame behind the head needs no
         wake. *)
      if Recovery.is_head r f then wake_rtx conn)
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
let retries conn = Recovery.retries conn.recovery
let consecutive_failures conn = Recovery.consec_fail conn.recovery
let duplicate_frames conn = conn.dup_frames
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
               attempts = Recovery.consec_fail conn.recovery;
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
