(* The reliability plane of a virtual channel: sequence numbers, the
   origin's log of unacknowledged packets, cumulative acks, re-emission
   over recomputed routes, the crash-epoch session handshake, and the
   per-rank sentinels whose suspicions reroute. {!Vchannel.create}
   builds it only for a vchannel with a fault plane; the core reaches it
   through the [hooks] record alone. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mutex = Marcel.Mutex

type core = {
  engine : Engine.t;
  patience : Time.span;
  routing : Channel.t Routing.t;
  ranks : int list;
  send : at:int -> Generic_tm.packet_header -> Bytes.t -> int -> unit;
  ship_detached :
    kind:string -> at:int -> Generic_tm.packet_header -> Bytes.t -> unit;
  emission_lock : src:int -> dst:int -> Mutex.t;
  reroute : unit -> unit;
  relative : unit -> bool;
  after_crash : int -> unit;
  after_verdict : me:int -> int -> Sentinel.state -> unit;
  health : unit -> unit;
  credit_crash : int -> unit -> unit;
}

(* The plane's counters, which {!Vchannel} re-exports. *)
module Stats = struct
  type rel_stats = {
    reroutes : int;
    reemitted : int;
    dup_drops : int;
    handshakes : int;
  }

  type flow_stat = {
    flow_src : int;
    flow_dst : int;
    sent : int;
    unacked : int;
    delivered : int;
  }
end

open Stats

type hooks = {
  ship : at:int -> Generic_tm.packet_header -> Bytes.t -> int -> unit;
  seal : Generic_tm.packet_header -> Bytes.t -> Generic_tm.packet_header;
  deliver : me:int -> Generic_tm.packet_header -> (unit -> unit) -> unit;
  on_hs : me:int -> Generic_tm.packet_header -> Bytes.t -> unit;
  on_ack : Generic_tm.packet_header -> unit;
  node_up : int -> bool;
  distrusts : int -> int -> bool;
  no_route : string -> exn;
  overload_edge : int -> bool -> unit;
  swap : Topology.change -> unit;
  ack_for : me:int -> origin:int -> int option;
  await_route : at:int -> dst:int -> unit;
  faults : Simnet.Faults.t option;
  sentinel : int -> Sentinel.t option;
  stats : unit -> rel_stats option;
  flows : unit -> flow_stat list;
  log_peaks : (int -> int -> int -> unit) -> unit;
}

(* Send-side state of one (origin, final destination) pair, made on
   the pair's first emission or handshake. Sequence numbers are per
   pair, 16 bits, carried in the packet header; every accepted packet
   is answered by a cumulative ack so the origin can trim its log of
   unacknowledged packets, from which packets are re-emitted after a
   gateway crash.

   Crash-epoch sessions: a crash wipes the crashed node's send-side
   state (cursors, logs) and marks its pairs [tx_lost]. Receive
   journals ([rx_next]) survive a restart — they model a delivery
   journal the session layer keeps on stable storage, which is what
   makes exactly-once possible at all. When the node comes back, every
   live peer that holds a journal for it sends a session-handshake
   packet ([hs] flag) carrying its expected sequence number, so the
   restarted origin resumes numbering where the receiver left off
   instead of colliding with its own pre-crash packets. *)
type tx = {
  mutable tx_seq : int;
      (* packets numbered; the next sequence number is this count
         modulo 2^16 *)
  tx_log : (int * Generic_tm.packet_header * Bytes.t) Queue.t;
      (* unacknowledged packets, in emission order *)
  mutable tx_log_peak : int;
  mutable tx_lost : bool;
      (* the origin crashed: sends block until the peer's session
         handshake restores the cursor *)
}

(* The delivery journal of one (me, origin) pair. Crash handshakes go
   to every pair that holds one, so a journal is made only by the
   pair's first delivery or grant, never by a receiver waiting for a
   message. *)
type rx = {
  mutable rx_next : int;
      (* packets accepted in order; the next expected sequence number
         is this count modulo 2^16 *)
}

type t = {
  core : core;
  faults : Simnet.Faults.t;
  unacked_cap : int; (* bound on the origin re-emission log, in packets *)
  tx : tx Pairs.t; (* [src].(dst) *)
  rx : rx Pairs.t; (* [me].(origin) *)
  sentinels : Sentinel.t option array; (* per-rank failure detectors *)
  suspected : bool array array;
      (* [observer].(peer): observer's sentinel currently calls the
         still-live peer Down. Under a partition the two sides suspect
         each other, so suspicion is meaningful only relative to who is
         looking — a global "someone suspects it" bit would take every
         rank down at once. *)
  susp_count : int array;
      (* peer -> number of observers suspecting it; the O(1)
         "suspected by anyone" view used when no election plane makes
         suspicion viewer-relative *)
  route_waiters : Waiters.t;
  hs_waiters : Waiters.t;
  ack_waiters : Waiters.t;
      (* senders blocked on a full unacked log, woken by ack arrivals *)
  mutable reroutes : int;
  mutable reemitted : int;
  mutable dup_drops : int;
  mutable handshakes : int;
}

let node_up r n = Simnet.Faults.node_up r.faults n
let routed r a b = Routing.routed r.core.routing a b
let touch r rank = Option.iter Sentinel.touch r.sentinels.(rank)

let tx_state r ~src ~dst =
  Pairs.get r.tx src dst (fun () ->
      {
        tx_seq = 0;
        tx_log = Queue.create ();
        tx_log_peak = 0;
        tx_lost = false;
      })

let journal r ~me ~origin = Pairs.get r.rx me origin (fun () -> { rx_next = 0 })

(* Park on [w] until [until ()] holds or the vchannel's patience runs
   out; returns whether [until ()] was reached. *)
let wait_patiently r w ~name ~until =
  Waiters.await w r.core.engine ~patience:r.core.patience ~name ~until

(* Wait out a route hole from [at] to [dst] until a route recomputation
   restores a path. A node restarting with a new epoch is unroutable for
   the length of its restart window; waiting it out here is what lets
   in-flight flows survive a crash-restart instead of dying on the
   transient hole. *)
let wait_route r ~at ~dst =
  let routed () = routed r at dst in
  let name = "vchannel.route" in
  if not (wait_patiently r r.route_waiters ~name ~until:routed) then
    raise
      (Config.Partitioned
         (Printf.sprintf "Vchannel: no route from %d to %d" at dst))

(* Ship one packet along the routes: a dead next hop is retried over the
   (by then recomputed) routes; a missing route is waited out with
   [wait_route]; when no route survives the flow is partitioned. *)
let ship r ~at header payload payload_len =
  touch r at;
  let rec go attempts =
    match r.core.send ~at header payload payload_len with
    | () -> ()
    | exception Config.Partitioned _ ->
        wait_route r ~at ~dst:header.Generic_tm.final_dst;
        go attempts
    | exception Config.Peer_unreachable msg ->
        if attempts >= 3 then raise (Config.Partitioned msg)
        else go (attempts + 1)
  in
  go 0

(* The origin trims its unacknowledged log on a cumulative ack. The
   16-bit sequence space wraps, so "at or before the acked number" is
   the circular half-space test: [acked - s] (mod 2^16) < 2^15. Entries
   are queued in emission order, so trimming pops from the front while
   the head is inside that window — a cumulative trim even when the
   exact acked packet was already trimmed by an earlier (reordered) ack.
   The log is capped at the flow-control window, which keeps every live
   entry well inside the half-space and makes a stale ack unable to eat
   unacked packets. Senders blocked on a full log are woken. *)
let handle_ack r header =
  let origin = header.Generic_tm.origin in
  (match Pairs.find r.tx header.Generic_tm.final_dst origin with
  | None -> ()
  | Some tx ->
      let q = tx.tx_log in
      let acked = header.Generic_tm.seq in
      let at_or_before s = (acked - s) land 0xffff < 0x8000 in
      let continue = ref true in
      while !continue && not (Queue.is_empty q) do
        let s, _, _ = Queue.peek q in
        if at_or_before s then ignore (Queue.pop q) else continue := false
      done);
  Waiters.wake_all r.ack_waiters

(* The cumulative ack [me] owes [origin]: the last sequence number its
   journal accepted, once it has accepted any. *)
let ack_for r ~me ~origin =
  let rx = journal r ~me ~origin in
  if rx.rx_next > 0 then Some ((rx.rx_next - 1) land 0xffff) else None

(* Cumulative ack from [me] back to the flow's origin, riding the normal
   routed path as a zero-payload packet. Best-effort: a lost or
   unroutable ack only delays trimming of the origin's log. *)
let send_ack r ~me ~origin =
  Option.iter
    (fun seq ->
      r.core.ship_detached ~kind:"ack" ~at:me
        { (Generic_tm.header ~origin:me ~final_dst:origin ~payload_len:0) with
          seq;
          ack = true;
        }
        Bytes.empty)
    (ack_for r ~me ~origin)

(* A packet reached its final node: accept only the expected sequence
   number (re-emitted duplicates and overtaking packets are dropped)
   and acknowledge cumulatively. *)
let deliver r ~me header accept =
  touch r me;
  let origin = header.Generic_tm.origin in
  let rx = journal r ~me ~origin in
  if header.Generic_tm.seq = rx.rx_next land 0xffff then begin
    rx.rx_next <- rx.rx_next + 1;
    accept ()
  end
  else r.dup_drops <- r.dup_drops + 1;
  send_ack r ~me ~origin

(* A 4-byte little-endian count: the payload of a handshake. *)
let int32_payload n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  b

(* Session handshake, received by a freshly restarted node: the peer
   tells us where its delivery journal stands ([seq] = next sequence it
   expects from us) and which restart epoch it is answering ([payload] =
   our epoch, 4 bytes LE — it rides as real payload so gateways forward
   it like any other packet). We resume our send cursor at the highest
   such expectation and unblock sends that were waiting on the lost
   cursor. A handshake for a previous epoch is stale and ignored. *)
let handle_hs r ~me header payload =
  let peer = header.Generic_tm.origin in
  let epoch =
    if Bytes.length payload >= 4 then
      Int32.to_int (Bytes.get_int32_le payload 0)
    else -1
  in
  if epoch = Simnet.Faults.epoch r.faults me then begin
    let tx = tx_state r ~src:me ~dst:peer in
    tx.tx_seq <- max tx.tx_seq header.Generic_tm.seq;
    tx.tx_lost <- false;
    r.handshakes <- r.handshakes + 1;
    Waiters.wake_all r.hs_waiters
  end

(* Block a send on a flow whose cursor was lost to a crash until the
   peer's handshake restores it — or patience runs out (peer never comes
   back, or never held any of our data so no handshake will come). *)
let wait_handshake r tx ~src ~dst =
  let restored () = not tx.tx_lost in
  let name = "vchannel.handshake" in
  if not (wait_patiently r r.hs_waiters ~name ~until:restored) then
    raise
      (Config.Partitioned
         (Printf.sprintf
            "Vchannel: flow %d->%d lost its session to a crash and no \
             handshake restored it"
            src dst))

(* A reliable sender whose re-emission log is full parks until acks trim
   it: reliable mode obeys the same memory budget as every other point
   on the path. Acks are arrival-driven (the destination acknowledges
   every data packet it sees, consumed or not), so the log drains as
   long as the network delivers — only a crashed or partitioned peer
   stops it, and that surfaces as [Partitioned] below. *)
let wait_unacked r ~src ~dst q =
  let engine = r.core.engine in
  while Queue.length q >= r.unacked_cap do
    if not (routed r src dst) then wait_route r ~at:src ~dst;
    if Queue.length q >= r.unacked_cap then begin
      Waiters.park r.ack_waiters ~name:"vchannel.unacked"
        ~deadline:(engine, Time.add (Engine.now engine) r.core.patience);
      if Queue.length q >= r.unacked_cap && not (node_up r dst) then
        raise
          (Config.Partitioned
             (Printf.sprintf
                "Vchannel: flow %d->%d blocked on a full unacked log and \
                 its peer crashed"
                src dst))
    end
  done

(* Number a data packet once any crash-lost cursor is restored and log
   a copy for re-emission (bounded: waits for acks to trim the log).
   The first [payload_len] bytes of [payload] are the packet's. *)
let seal r header payload =
  let src = header.Generic_tm.origin and dst = header.Generic_tm.final_dst in
  let tx = tx_state r ~src ~dst in
  wait_handshake r tx ~src ~dst;
  let seq = tx.tx_seq land 0xffff in
  tx.tx_seq <- tx.tx_seq + 1;
  let header = { header with seq } in
  let q = tx.tx_log in
  wait_unacked r ~src ~dst q;
  Queue.push (seq, header, Bytes.sub payload 0 header.Generic_tm.payload_len) q;
  tx.tx_log_peak <- max tx.tx_log_peak (Queue.length q);
  header

(* After a membership change, re-emit every unacknowledged packet of
   the affected live flows over the recomputed routes ([only] narrows
   the set — an epoch swap re-emits just the flows whose route actually
   changed). One daemon per flow; it takes the flow's emission lock so
   re-emitted packets cannot interleave with (and overtake) a message
   in progress — the receiver's sequence check would then discard the
   overtaken packets for good. *)
let reemit_flows ?(only = fun _ _ -> true) r =
  Pairs.iter
    (fun src dst { tx_log = q; _ } ->
      if only src dst && node_up r src && not (Queue.is_empty q) then
        Engine.spawn r.core.engine ~daemon:true
          ~name:(Printf.sprintf "vchannel.reemit.%d->%d" src dst)
          (fun () ->
            let lock = r.core.emission_lock ~src ~dst in
            Mutex.lock lock;
            let snapshot = List.of_seq (Queue.to_seq q) in
            (try
               List.iter
                 (fun (seq, header, payload) ->
                   (* Skip packets acked while we waited for the lock. *)
                   if Queue.fold (fun f (s, _, _) -> f || s = seq) false q
                   then begin
                     r.reemitted <- r.reemitted + 1;
                     ship r ~at:src header payload (Bytes.length payload)
                   end)
                 snapshot
             with Config.Partitioned _ | Config.Peer_unreachable _ -> ());
            Mutex.unlock lock))
    r.tx

(* Recompute the routes, preferring those around Overloaded gateways,
   and wake the senders waiting out a route hole. *)
let recompute r =
  r.core.reroute ();
  Waiters.wake_all r.route_waiters

(* An epoch swap or an Overloaded edge: recompute the routes, then
   re-emit ONLY the flows whose route actually changed (switching routes
   mid-flow can strand packets the destination's sequence check
   discarded as overtakers), under each flow's emission lock. An edge
   with no alternate gateway changes no route and re-emits nothing —
   re-emitting into an already-overloaded path would feed the
   congestion it is reporting. *)
let swap_routes r =
  let before = Routing.routes r.core.routing in
  recompute r;
  reemit_flows r ~only:(Routing.changed r.core.routing ~before)

(* Whether [viewer] distrusts the live rank [n]: with relative suspicion
   (quorum elections) its own sentinel's verdict, so under a symmetric
   partition each side keeps full routes within itself instead of
   everyone going dark because somebody somewhere suspects them;
   otherwise any observer's verdict, standing for everybody. *)
let suspects r ~viewer n =
  if r.core.relative () then r.suspected.(viewer).(n) else r.susp_count.(n) > 0

(* Withdraw [o]'s suspicion of [p], keeping the by-any count in step. *)
let unsuspect r o p =
  if r.suspected.(o).(p) then begin
    r.suspected.(o).(p) <- false;
    r.susp_count.(p) <- r.susp_count.(p) - 1
  end

(* Drop every suspicion record involving [rank] — as the suspect (any
   observer's entry) and as an observer (its own verdicts die with its
   departure). *)
let unsuspect_all r rank =
  Array.iteri
    (fun o _ ->
      unsuspect r o rank;
      unsuspect r rank o)
    r.susp_count

(* Call [f me s] for every rank's sentinel, in ascending rank order. *)
let iter_sentinels r f = Array.iteri (fun me -> Option.iter (f me)) r.sentinels

(* An epoch swap: every sentinel learns the joined ranks and forgets the
   departed ones, then the routes are recomputed. Dropping a departed
   rank from every detector is what keeps a long-lived elastic
   session's phi-accrual state from growing without bound — and what
   stops a sentinel from suspecting a rank that left gracefully. *)
let swap r { Topology.joined; departed } =
  List.iter
    (fun rank ->
      unsuspect_all r rank;
      iter_sentinels r (fun me s ->
          if me <> rank && Routing.same_channel r.core.routing me rank then
            Sentinel.learn s rank))
    joined;
  List.iter
    (fun rank ->
      unsuspect_all r rank;
      iter_sentinels r (fun me s -> if me <> rank then Sentinel.forget s rank))
    departed;
  swap_routes r

(* An Overloaded edge at [node]: every other sentinel hears the load
   report, and the routes move around (or back onto) the gateway. *)
let overload_edge r node flag =
  iter_sentinels r (fun me s ->
      if me <> node then Sentinel.set_overloaded s ~peer:node flag);
  swap_routes r

(* ------------------------------------------------------------------ *)
(* Reactions to the fault plane and the sentinels. Crashes are handled
   here, so sentinel transitions on actually-crashed peers change
   nothing. *)

let on_crash r node =
  if Routing.mem r.core.routing node then begin
    r.reroutes <- r.reroutes + 1;
    (* The crashed node's send-side session state dies with it: cursors
       and unacked logs are volatile. Its flows stay blocked
       ([tx_lost]) until a peer handshake restores the cursor after
       restart. Receive journals survive. The credit plane wipes its
       own counters and names the probes to re-arm once the routes are
       recomputed. *)
    Pairs.iter_row
      (fun _ tx ->
        tx.tx_seq <- 0;
        tx.tx_lost <- true;
        Queue.clear tx.tx_log)
      r.tx node;
    let rearm_probes = r.core.credit_crash node in
    recompute r;
    rearm_probes ();
    reemit_flows r;
    r.core.health ();
    r.core.after_crash node
  end

let on_restart r node =
  if Routing.mem r.core.routing node then begin
    recompute r;
    (* Crash-epoch session handshake: every live peer holding a delivery
       journal for the restarted origin tells it (over the routed
       network, so gateways forward it like data) where to resume
       numbering. *)
    let epoch = Simnet.Faults.epoch r.faults node in
    Pairs.iter_col
      (fun me rx ->
        if me <> node && node_up r me then
          r.core.ship_detached ~kind:"hs" ~at:me
            { (Generic_tm.header ~origin:me ~final_dst:node ~payload_len:4) with
              seq = rx.rx_next land 0xffff;
              hs = true;
            }
            (int32_payload epoch))
      r.rx node;
    (* Flows to peers holding no journal for this node restart at zero
       immediately — nobody will send a handshake. *)
    let fresh = ref false in
    Pairs.iter_row
      (fun dst tx ->
        if tx.tx_lost && Option.is_none (Pairs.find r.rx dst node) then begin
          tx.tx_lost <- false;
          fresh := true
        end)
      r.tx node;
    if !fresh then Waiters.wake_all r.hs_waiters;
    reemit_flows r;
    r.core.health ()
  end

(* [me]'s sentinel changed its verdict on [peer]. Calling a still-live
   peer Down is a suspicion: routes are recomputed around the suspect
   and in-flight packets re-emitted, before any send times out on it.
   With global suspicion the first observer acts for everyone (the
   by-any view is what routing sees, so later observers change
   nothing, and the first good probe anywhere rehabilitates the peer
   for everyone); with relative suspicion every observer's own view
   shifts, so each one recomputes. The membership view hears of every
   verdict the plane acted on. *)
let on_verdict r ~me peer _from to_ =
  let relative = r.core.relative () in
  match to_ with
  | Sentinel.Down when node_up r peer ->
      if not r.suspected.(me).(peer) then begin
        let was = r.susp_count.(peer) > 0 in
        r.suspected.(me).(peer) <- true;
        r.susp_count.(peer) <- r.susp_count.(peer) + 1;
        if relative || not was then begin
          r.reroutes <- r.reroutes + 1;
          recompute r;
          reemit_flows r;
          r.core.health ()
        end;
        r.core.after_verdict ~me peer to_
      end
  | Sentinel.Up when relative ->
      if r.suspected.(me).(peer) then begin
        unsuspect r me peer;
        recompute r;
        r.core.health ();
        r.core.after_verdict ~me peer to_
      end
  | Sentinel.Up ->
      if r.susp_count.(peer) > 0 then begin
        Array.iter (fun row -> row.(peer) <- false) r.suspected;
        r.susp_count.(peer) <- 0;
        recompute r;
        r.core.health ()
      end
  | _ -> ()

(* One phi-accrual sentinel per rank, probing its channel neighbours. *)
let start_sentinel r me =
  let routing = r.core.routing in
  let neighbours = List.sort compare (Routing.neighbours routing me) in
  if neighbours <> [] then begin
    let fabric =
      List.find_map Channel.fabric (Routing.channels_of routing me)
    in
    let s =
      Sentinel.create r.core.engine r.faults ~me ~peers:neighbours ?fabric ()
    in
    Sentinel.on_transition s (on_verdict r ~me);
    Sentinel.start s;
    r.sentinels.(me) <- Some s
  end

(* Every pair either end of which holds reliability state. *)
let flow_stats r =
  let count f = Option.fold ~none:0 ~some:f in
  List.concat_map
    (fun s ->
      List.filter_map
        (fun d ->
          match (Pairs.find r.tx s d, Pairs.find r.rx d s) with
          | None, None -> None
          | tx, rx ->
              Some
                {
                  flow_src = s;
                  flow_dst = d;
                  sent = count (fun tx -> tx.tx_seq) tx;
                  unacked = count (fun tx -> Queue.length tx.tx_log) tx;
                  delivered = count (fun rx -> rx.rx_next) rx;
                })
        r.core.ranks)
    r.core.ranks

let create ~unacked_cap core faults =
  let n = 1 + List.fold_left max 0 core.ranks in
  let r =
    {
      core;
      faults;
      unacked_cap;
      tx = Pairs.create n;
      rx = Pairs.create n;
      sentinels = Array.make n None;
      suspected = Array.make_matrix n n false;
      susp_count = Array.make n 0;
      route_waiters = Waiters.create ();
      hs_waiters = Waiters.create ();
      ack_waiters = Waiters.create ();
      reroutes = 0;
      reemitted = 0;
      dup_drops = 0;
      handshakes = 0;
    }
  in
  Simnet.Faults.on_crash faults (on_crash r);
  Simnet.Faults.on_restart faults (on_restart r);
  List.iter (start_sentinel r) core.ranks;
  {
    ship = ship r;
    seal = seal r;
    deliver = deliver r;
    on_hs = handle_hs r;
    on_ack = handle_ack r;
    node_up = node_up r;
    distrusts = (fun viewer n -> (not (node_up r n)) || suspects r ~viewer n);
    no_route = (fun msg -> Config.Partitioned msg);
    overload_edge = overload_edge r;
    swap = swap r;
    ack_for = ack_for r;
    await_route =
      (fun ~at ~dst -> if not (routed r at dst) then wait_route r ~at ~dst);
    faults = Some faults;
    sentinel = (fun rank -> r.sentinels.(rank));
    stats =
      (fun () ->
        Some
          {
            reroutes = r.reroutes;
            reemitted = r.reemitted;
            dup_drops = r.dup_drops;
            handshakes = r.handshakes;
          });
    flows = (fun () -> flow_stats r);
    log_peaks =
      (fun f -> Pairs.iter (fun src dst tx -> f src dst tx.tx_log_peak) r.tx);
  }
