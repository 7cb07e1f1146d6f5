module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox
module Mutex = Marcel.Mutex
module Condition = Marcel.Condition
module Semaphore = Marcel.Semaphore

(* Threads parked on a state change, released together by [wake_all].
   [Engine.suspend]'s wake ignores repeat calls, so a parked thread may
   sit both on the list and behind a deadline timer without a guard. *)
module Waiters = struct
  type t = { mutable parked : (unit -> unit) list }

  let create () = { parked = [] }

  (* Park until the next [wake_all], or until [deadline] on [engine]. *)
  let park ?deadline w ~name =
    Engine.suspend ~name (fun wake ->
        w.parked <- wake :: w.parked;
        match deadline with
        | Some (engine, at) -> Engine.at engine at wake
        | None -> ())

  let wake_all w =
    let parked = w.parked in
    w.parked <- [];
    List.iter (fun wake -> wake ()) parked
end

(* Byte stream with blocking reads and message-end markers, fed by the
   dispatcher threads and drained by user unpacks. *)
module Assembler = struct
  type item = Data of Bytes.t | End_of_message

  type t = {
    items : item Queue.t;
    mutable head_off : int;
    waiters : Waiters.t;
    mutable on_pop : int -> unit;
        (* consumption hook: called with the chunk length every time a
           whole Data chunk (= one packet payload) has been drained —
           where credit replenishment and buffered-byte accounting hang *)
  }

  let create () =
    {
      items = Queue.create ();
      head_off = 0;
      waiters = Waiters.create ();
      on_pop = ignore;
    }

  let push t item =
    Queue.push item t.items;
    Waiters.wake_all t.waiters

  let wait t = Waiters.park t.waiters ~name:"vchannel.assembler"

  (* Reads exactly [len] bytes into [dst] at [off]; an End_of_message
     marker inside the span is an asymmetry. *)
  let rec read_exact t dst ~off ~len =
    if len > 0 then begin
      match Queue.peek_opt t.items with
      | None ->
          wait t;
          read_exact t dst ~off ~len
      | Some End_of_message ->
          raise
            (Config.Symmetry_violation
               "unpack crosses a message boundary: more data requested \
                than was packed")
      | Some (Data chunk) ->
          let avail = Bytes.length chunk - t.head_off in
          if avail = 0 then begin
            ignore (Queue.pop t.items);
            t.head_off <- 0;
            t.on_pop (Bytes.length chunk);
            read_exact t dst ~off ~len
          end
          else begin
            let take = min avail len in
            Bytes.blit chunk t.head_off dst off take;
            t.head_off <- t.head_off + take;
            read_exact t dst ~off:(off + take) ~len:(len - take)
          end
    end

  (* Consumes the End_of_message marker; leftover data first is an
     asymmetry. *)
  let rec finish_message t =
    match Queue.peek_opt t.items with
    | None ->
        wait t;
        finish_message t
    | Some (Data chunk) when Bytes.length chunk = t.head_off ->
        ignore (Queue.pop t.items);
        t.head_off <- 0;
        t.on_pop (Bytes.length chunk);
        finish_message t
    | Some (Data _) ->
        raise
          (Config.Symmetry_violation
             "end_unpacking with unconsumed packed data")
    | Some End_of_message ->
        ignore (Queue.pop t.items);
        t.head_off <- 0
end

type hop = { hop_channel : Channel.t; hop_to : int }

exception Partitioned of string

exception No_quorum of string

(* Peak-tracking occupancy counter for one buffering point. *)
type probe_point = { mutable pp_cur : int; mutable pp_peak : int }

let pp_make () = { pp_cur = 0; pp_peak = 0 }

let pp_add p n =
  p.pp_cur <- p.pp_cur + n;
  if p.pp_cur > p.pp_peak then p.pp_peak <- p.pp_cur

let pp_sub p n = p.pp_cur <- p.pp_cur - n

(* Send-side state of one (src, dst) pair, made on the pair's first
   emission. Re-emission daemons spawn in the table's order, which is
   thus part of the schedule. The reliability fields are used only with
   a fault plane: sequence numbers are per (origin, final destination)
   pair, 16 bits, carried in the packet header; every accepted packet
   is answered by a cumulative ack so the origin can trim its log of
   unacknowledged packets, from which packets are re-emitted after a
   gateway crash. The credit fields are used only with [?credits] (see
   [credits]).

   Crash-epoch sessions: a crash wipes the crashed node's send-side
   state (cursors, logs, credit counters) and marks its pairs
   [tx_lost]. Receive cursors ([rx_next]) survive a restart — they
   model a delivery journal the session layer keeps on stable storage,
   which is what makes exactly-once possible at all. When the node
   comes back, every live peer that has delivered data from it sends a
   session-handshake packet ([hs] flag) carrying its expected sequence
   number, so the restarted origin resumes numbering where the receiver
   left off instead of colliding with its own pre-crash packets. *)
type tx = {
  mutable tx_seq : int; (* next sequence number *)
  tx_log : (int * Generic_tm.packet_header * Bytes.t) Queue.t;
      (* unacknowledged packets, in emission order *)
  mutable tx_log_peak : int;
  mutable tx_lost : bool;
      (* the origin crashed: sends block until the peer's session
         handshake restores the cursor *)
  tx_mu : Mutex.t;
  tx_cond : Condition.t; (* credit-blocked senders wait here *)
  mutable tx_shipped : int;
  mutable tx_granted : int; (* receiver's consumed count, as last heard *)
}

(* Receive-side state of one (me, origin) pair: the delivery journal,
   the consumption count credits are granted from, and the bytes
   buffered in the pair's assemblers. Crash handshakes go out in the
   table's order and to every pair in it, so a record is made only by
   the pair's first delivery or grant, never by a receiver waiting for
   a message. *)
type rx = {
  mutable rx_next : int; (* next expected sequence number *)
  mutable rx_consumed : int; (* data packets drained by user unpacks *)
  mutable rx_last_grant : int; (* consumed count when we last granted *)
  rx_asm : probe_point; (* assembler bytes, across the pair's flows *)
  rx_pop : int -> unit; (* the pair's assembler consumption hook *)
}

(* One receive endpoint per (me, origin, flow): logical flows have
   independent byte streams and message starts. *)
type endpoint = { ep_starts : unit Mailbox.t; ep_asm : Assembler.t }

(* Forwarding state of one node, made for every rank at creation. *)
type gateway = {
  gw_slots : probe_point;
      (* busy forwarding-pool slots across the node's pumps; counted only
         when the watermark machinery is on *)
  mutable gw_gen : int; (* cancels stale overload-clear timers *)
  mutable gw_packets : int; (* forwarded *)
  mutable gw_bytes : int;
  mutable gw_next_ingress : Time.t; (* ingress pacing slot *)
}

(* End-to-end reliability state, present only when the vchannel was
   created with a fault plane; the per-pair cursors and logs live in
   [tx] and [rx]. *)
type rel = {
  faults : Simnet.Faults.t;
  sentinels : (int, Sentinel.t) Hashtbl.t; (* per-rank failure detectors *)
  suspected : (int * int, unit) Hashtbl.t;
      (* (observer, peer): observer's sentinel currently calls the
         still-live peer Down. Under a partition the two sides suspect
         each other, so suspicion is meaningful only relative to who is
         looking — a global "someone suspects it" bit would take every
         rank down at once. *)
  susp_count : (int, int) Hashtbl.t;
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

(* End-to-end credit-based flow control, present only when the vchannel
   was created with [?credits]; the per-pair counters live in [tx] and
   [rx]. Receiver-granted: each (src, dst) flow may have at most
   [cr_budget] unconsumed data packets in the network or buffered at the
   destination, so every buffering point on the path holds at most
   budget * MTU bytes of the flow. The sender counts
   packets shipped; the receiver counts packets *consumed* by user
   unpacks (arrival is not consumption — a paused receiver must block
   the sender, not let it fill the assembler) and replenishes by sending
   cumulative grants every [cr_quantum] consumptions, piggybacking the
   flow's cumulative ack on reliable vchannels. A sender out of credits
   blocks on the flow's condition variable; a zero-window probe shipped
   every {!Config.credit_probe_interval} while blocked makes a lost
   grant (crash paths) unable to wedge the flow. All counters are plain
   cumulative ints — only the data-packet sequence number wraps. *)
type credits = {
  cr_budget : int;
  cr_quantum : int;
  mutable cr_grants : int;
  mutable cr_probes : int;
  mutable cr_stalls : int;
}

(* One forwarding pump per (gateway node, outgoing link): the paper's
   per-direction dual-buffer pipeline (Fig. 9). Keeping the pumps
   per-link rather than per-node matters for liveness: a shared pump
   couples opposite forwarding directions through its buffer semaphore,
   and bidirectional all-pairs traffic through chained gateways can then
   form a circular wait. With per-link pumps the wait graph follows the
   (acyclic) routes, so chains and trees of clusters are deadlock-free. *)
type pump = {
  pump_q : (Generic_tm.packet_header * Bytes.t) Mailbox.t;
  pump_buffers : Semaphore.t; (* the two pipeline buffers *)
}

(* Suppressed membership intents of a partitioned minority, replayed
   through the winning coordinator once the cut heals. *)
type intent = P_join of int | P_drain of int

(* Quorum-election plane, present only when the vchannel was created
   with [~election:true] (clusterfile [election=on]). It is a sub-plane
   of live topology (it lives in [live.lv_elect]) and holds the fault
   plane it requires: the sentinels carry both the suspicion verdicts a
   candidacy rides on and the ballot registries. Candidacy is
   epoch-numbered: term = current topology epoch + 1, and a commit is
   [Topology.with_coordinator] — which bumps the epoch to exactly the
   term — so two candidates can never both commit the same epoch: the
   loser's re-check ([epoch < term]) fails after the winner's swap.
   Ballots live in the candidate's {!Sentinel} tagged with the voter's
   crash epoch, so a restarted voter's stale ballot stops counting
   without any revocation traffic. *)
type elect = {
  el_rel : rel;
  el_quorum : int option; (* pinned ballot quorum ([?topo_quorum]);
                             [None] = majority of the current membership *)
  mutable el_term : int; (* highest term seen locally *)
  mutable el_elections : int; (* committed elections *)
  mutable el_attempts : int; (* candidacies started *)
  mutable el_refusals : int; (* candidacies/epoch bumps refused: no quorum *)
  mutable el_commits : (int * int) list; (* (epoch, coordinator), newest first *)
  mutable el_last_latency : Time.span; (* trigger -> commit, last election *)
  mutable el_running : bool; (* a candidacy is in flight *)
  mutable el_pending : intent list; (* minority's suppressed intents *)
}

(* Live-topology plane, present only when the vchannel was created with
   [?topology] (clusterfile [version=]). The snapshot is the current
   epoch's membership; every simulated rank reads the same snapshot, so
   an epoch swap is one pointer assignment at the coordinator followed
   by a route recomputation. Joins and drains travel as [top] control
   packets over the data path, so they cross gateways, cost network
   time, and interleave with live traffic like any other packet. *)
type live = {
  mutable lv_coordinator : int;
      (* follows the snapshot's coordinator; mutable because a quorum
         election can move it away from the clusterfile's choice *)
  mutable lv_snapshot : Topology.t;
  lv_draining : (int, unit) Hashtbl.t;
      (* ranks mid-drain: still routable, but accept no new flows *)
  mutable lv_joins : int;
  mutable lv_drains : int;
  lv_waiters : Waiters.t; (* threads parked on the next epoch swap *)
  lv_elect : elect option; (* quorum elections (clusterfile election=on) *)
}

type t = {
  engine : Engine.t;
  mtu : int;
  patience : Time.span;
  gateway_overhead : Time.span;
  extra_gateway_copy : bool;
  ingress_cap_mb_s : float option;
  channels : Channel.t list;
  all_ranks : int list;
  mutable routes : (int * int, hop list) Hashtbl.t;
  base_hops : (int * int, int) Hashtbl.t; (* route lengths at creation *)
  rel : rel option;
  mutable sched : Sched.t option; (* aggregating scheduler (sched=aggreg) *)
  tx : (int * int, tx) Hashtbl.t; (* (src, dst) *)
  rx : (int * int, rx) Hashtbl.t; (* (me, origin) *)
  endpoints : (int * int * int, endpoint) Hashtbl.t; (* (me, origin, flow) *)
  gateways : (int, gateway) Hashtbl.t;
  incoming : (int, (int * int) Mailbox.t) Hashtbl.t;
      (* any-source: (origin, flow) queue *)
  pumps : (int * int * int, pump) Hashtbl.t; (* (node, out chan id, out dst) *)
  send_locks : (int * int * int, Mutex.t) Hashtbl.t;
      (* per-(src, dst, flow) message serialization *)
  credits : credits option;
  gw_pool : int;
      (* forwarding buffers per pump (2 = paper's dual buffer); a gateway
         whose busy slots reach it reports Overloaded *)
  gw_low : int; (* busy slots at which the report clears (hysteresis) *)
  overload_track : bool; (* watermark machinery on (credits or gw_pool set) *)
  overloaded : (int, unit) Hashtbl.t; (* gateways above their watermark *)
  mutable overload_events : int; (* Overloaded transitions (rising edges) *)
  live : live option; (* live topology (clusterfile version=) *)
  mutable on_col : me:int -> origin:int -> Bytes.t -> unit;
      (* collective-control packets, delivered to the Collectives layer *)
  mutable on_health_change : unit -> unit;
      (* any liveness/overload/epoch transition; Collectives repair hook *)
  unacked_cap : int; (* bound on the origin re-emission log, in packets *)
}

let memo table key mk =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add table key v;
      v

let endpoint t ~me ~origin ~flow =
  memo t.endpoints (me, origin, flow) (fun () ->
      { ep_starts = Mailbox.create (); ep_asm = Assembler.create () })

let tx_state t ~src ~dst =
  memo t.tx (src, dst) (fun () ->
      {
        tx_seq = 0;
        tx_log = Queue.create ();
        tx_log_peak = 0;
        tx_lost = false;
        tx_mu = Mutex.create ();
        tx_cond = Condition.create ();
        tx_shipped = 0;
        tx_granted = 0;
      })

let gateway t node = Hashtbl.find t.gateways node
let incoming t ~me = memo t.incoming me (fun () -> Mailbox.create ())
let send_lock t ~src ~dst ~flow = memo t.send_locks (src, dst, flow) Mutex.create
let ranks t = t.all_ranks

let election t =
  match t.live with Some { lv_elect = Some _; _ } -> true | _ -> false

let check_ranks t op src dst =
  if not (List.mem src t.all_ranks && List.mem dst t.all_ranks) then
    invalid_arg
      (Printf.sprintf "Vchannel.%s: rank %d or %d not part of the virtual \
                       channel (ranks %s)"
         op src dst
         (String.concat "," (List.map string_of_int t.all_ranks)))

let find_route t op ~src ~dst =
  check_ranks t op src dst;
  if src = dst then Some []
  else Hashtbl.find_opt t.routes (src, dst)

let no_route op src dst =
  Partitioned (Printf.sprintf "Vchannel.%s: no route from %d to %d" op src dst)

let route_length t ~src ~dst =
  match find_route t "route_length" ~src ~dst with
  | Some hops -> List.length hops
  | None -> raise (no_route "route_length" src dst)

let route_via t ~src ~dst =
  match find_route t "route_via" ~src ~dst with
  | Some hops -> List.map (fun h -> h.hop_to) hops
  | None -> raise (no_route "route_via" src dst)

let forwarded t =
  Hashtbl.fold
    (fun node gw acc ->
      if gw.gw_packets > 0 then (node, gw.gw_packets, gw.gw_bytes) :: acc
      else acc)
    t.gateways []
  |> List.sort compare

(* Fewest-channel-hops routing over the channel membership graph:
   breadth-first search keeping (node -> predecessor node * hop).
   [down u v] excludes the hop u -> v: crashed or departed nodes are
   down for every u, and viewer-relative suspicion (quorum-election
   vchannels) makes the predicate genuinely edge-shaped — a hop exists
   only when its sender trusts its receiver, so a route never enters a
   region its own relays would refuse to forward into. With a
   viewer-blind predicate this reduces exactly to the old node
   exclusion. *)
let compute_routes ?(down = fun _ _ -> false) channels all_ranks =
  let routes = Hashtbl.create 64 in
  (* Per-node adjacency, built once per call: for each node, the channels
     containing it (in channel-list order) with their member lists. The
     BFS below visits exactly the nodes the naive per-pop channel rescan
     visited, in the same order — routes are unchanged; only the
     O(channels × members) scan per frontier pop goes away, which
     dominates route computation beyond a few hundred ranks. *)
  let adj : (int, (Channel.t * int list) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun c ->
      let members = Channel.ranks c in
      List.iter
        (fun u ->
          match Hashtbl.find_opt adj u with
          | Some cell -> cell := (c, members) :: !cell
          | None -> Hashtbl.add adj u (ref [ (c, members) ]))
        members)
    channels;
  let adj_of u =
    match Hashtbl.find_opt adj u with Some cell -> List.rev !cell | None -> []
  in
  List.iter
    (fun src ->
      if not (down src src) then begin
        let pred : (int, int * hop) Hashtbl.t = Hashtbl.create 16 in
        let visited = Hashtbl.create 16 in
        Hashtbl.add visited src ();
        let frontier = Queue.create () in
        Queue.push src frontier;
        while not (Queue.is_empty frontier) do
          let u = Queue.pop frontier in
          List.iter
            (fun (c, members) ->
              List.iter
                (fun v ->
                  if v <> u && (not (down u v)) && not (Hashtbl.mem visited v)
                  then begin
                    Hashtbl.add visited v ();
                    Hashtbl.add pred v (u, { hop_channel = c; hop_to = v });
                    Queue.push v frontier
                  end)
                members)
            (adj_of u)
        done;
        List.iter
          (fun dst ->
            if dst <> src && Hashtbl.mem pred dst then begin
              let rec path v acc =
                if v = src then acc
                else
                  let u, hop = Hashtbl.find pred v in
                  path u (hop :: acc)
              in
              Hashtbl.add routes (src, dst) (path dst [])
            end)
          all_ranks
      end)
    all_ranks;
  routes

(* No route from [at] to [dst] on the send path: a partition on a
   reliable vchannel, whose routes come and go with faults; a usage
   error on a fault-free one. *)
let unroutable t ~at ~dst =
  let msg = Printf.sprintf "Vchannel: no route from %d to %d" at dst in
  match t.rel with Some _ -> Partitioned msg | None -> Invalid_argument msg

let next_hop t ~at ~dst =
  match Hashtbl.find_opt t.routes (at, dst) with
  | Some (hop :: _) -> hop
  | Some [] | None -> raise (unroutable t ~at ~dst)

let touch_sentinel r ~rank =
  match Hashtbl.find_opt r.sentinels rank with
  | Some s -> Sentinel.touch s
  | None -> ()

(* Whether [n] is up; without a fault plane every node always is. *)
let node_up t n =
  match t.rel with Some r -> Simnet.Faults.node_up r.faults n | None -> true

(* Park on [w] until [until ()] holds or the vchannel's patience runs
   out; returns whether [until ()] was reached. *)
let wait_patiently t w ~name ~until =
  let deadline = Time.add (Engine.now t.engine) t.patience in
  while (not (until ())) && Time.( < ) (Engine.now t.engine) deadline do
    Waiters.park w ~name ~deadline:(t.engine, deadline)
  done;
  until ()

(* Wait out a route hole from [at] to [dst] until a route recomputation
   restores a path. A node restarting with a new epoch is unroutable for
   the length of its restart window; waiting it out here is what lets
   in-flight flows survive a crash-restart instead of dying on the
   transient hole. *)
let wait_route t r ~at ~dst =
  let routed () = Hashtbl.mem t.routes (at, dst) in
  let name = "vchannel.route" in
  if not (wait_patiently t r.route_waiters ~name ~until:routed) then
    raise (unroutable t ~at ~dst)

(* One hop of a self-described packet: a regular Madeleine message on the
   hop's real channel, EXPRESS header then CHEAPER payload. The hop is
   endpoint-to-endpoint iff it starts at the packet's origin and lands
   on its final destination; anything else is a gateway transit hop,
   whose payload lives in protocol staging buffers — the Switch must not
   hand it to the zero-copy rendezvous. The receiver computes the same
   predicate from the header it just unpacked, so selection mirrors. A
   dead next hop aborts the message and re-raises
   [Config.Peer_unreachable]. *)
let send_hop ~at hop ~header ~payload ~payload_len =
  let transit =
    at <> header.Generic_tm.origin || hop.hop_to <> header.Generic_tm.final_dst
  in
  let oc =
    Api.begin_packing (Channel.endpoint hop.hop_channel ~rank:at)
      ~remote:hop.hop_to
  in
  match
    Api.pack oc ~r_mode:Iface.Receive_express (Generic_tm.encode_header header);
    if payload_len > 0 then
      Api.pack oc ~r_mode:Iface.Receive_cheaper ~transit ~len:payload_len
        payload;
    Api.end_packing oc
  with
  | () -> ()
  | exception (Config.Peer_unreachable _ as e) ->
      Api.abort_packing oc;
      raise e

(* Ship one packet along the routes. On a reliable vchannel a dead next
   hop is retried over the (by then recomputed) routes; a missing route
   is waited out with [wait_route]; when no route survives the flow is
   partitioned. *)
let ship_packet t ~at ~header ~payload ~payload_len =
  let dst = header.Generic_tm.final_dst in
  match t.rel with
  | None -> send_hop ~at (next_hop t ~at ~dst) ~header ~payload ~payload_len
  | Some r ->
      touch_sentinel r ~rank:at;
      let rec go attempts =
        match next_hop t ~at ~dst with
        | exception Partitioned _ ->
            wait_route t r ~at ~dst;
            go attempts
        | hop -> (
            try send_hop ~at hop ~header ~payload ~payload_len
            with Config.Peer_unreachable msg ->
              if attempts >= 3 then raise (Partitioned msg)
              else go (attempts + 1))
      in
      go 0

(* Ship a control packet from [at] on its own daemon thread. Best-effort:
   each control protocol recovers a lost or unroutable packet itself
   (probes, retries, re-handshakes), so the sender never waits on it. *)
let ship_detached t ~kind ~at header payload =
  Engine.spawn t.engine ~daemon:true
    ~name:
      (Printf.sprintf "vchannel.%s.%d->%d" kind at header.Generic_tm.final_dst)
    (fun () ->
      try
        ship_packet t ~at ~header ~payload
          ~payload_len:header.Generic_tm.payload_len
      with Partitioned _ | Config.Peer_unreachable _ -> ())

(* A 4-byte little-endian count: the payload of grants and handshakes. *)
let int32_payload n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  b

(* The origin trims its unacknowledged log on a cumulative ack. The
   16-bit sequence space wraps, so "at or before the acked number" is
   the circular half-space test: [acked - s] (mod 2^16) < 2^15. Entries
   are queued in emission order, so trimming pops from the front while
   the head is inside that window — a cumulative trim even when the
   exact acked packet was already trimmed by an earlier (reordered) ack.
   The log is capped at the flow-control window, which keeps every live
   entry well inside the half-space and makes a stale ack unable to eat
   unacked packets. Senders blocked on a full log are woken. *)
let handle_ack t r header =
  let key = (header.Generic_tm.final_dst, header.Generic_tm.origin) in
  (match Hashtbl.find_opt t.tx key with
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

(* ------------------------------------------------------------------ *)
(* Credit plane *)

(* Cumulative grant from the consumer [me] back to the flow's origin: a
   [crd] packet whose 4-byte payload is the number of data packets
   consumed so far. On reliable vchannels it piggybacks the flow's
   cumulative ack ([ack] flag + [seq]), so a grant also trims the
   origin's re-emission log. Rides the normal routed path — gateways
   forward it like data. Best-effort: a lost grant is recovered by the
   sender's zero-window probe. *)
let send_grant t c rx ~me ~origin =
  rx.rx_last_grant <- rx.rx_consumed;
  c.cr_grants <- c.cr_grants + 1;
  let ack, seq =
    match t.rel with
    | Some _ when rx.rx_next > 0 -> (true, (rx.rx_next - 1) land 0xffff)
    | _ -> (false, 0)
  in
  ship_detached t ~kind:"grant" ~at:me
    { (Generic_tm.header ~origin:me ~final_dst:origin ~payload_len:4) with
      seq;
      ack;
      crd = true;
    }
    (int32_payload rx.rx_consumed)

(* Zero-window probe from a credit-blocked sender: an empty [crd] packet
   the receiver answers with a fresh grant. Covers grants lost to crash
   paths, so a blocked flow can always make progress once the receiver
   consumes. *)
let send_probe t c ~src ~dst =
  c.cr_probes <- c.cr_probes + 1;
  ship_detached t ~kind:"probe" ~at:src
    { (Generic_tm.header ~origin:src ~final_dst:dst ~payload_len:0) with
      crd = true;
    }
    Bytes.empty

(* One user unpack drained a whole packet payload at [me]: account the
   buffered bytes away and replenish the origin's credits once a grant
   quantum's worth has been consumed. *)
let note_consumed t rx ~me ~origin chunk_len =
  pp_sub rx.rx_asm chunk_len;
  match t.credits with
  | None -> ()
  | Some c ->
      rx.rx_consumed <- rx.rx_consumed + 1;
      if rx.rx_consumed - rx.rx_last_grant >= c.cr_quantum then
        send_grant t c rx ~me ~origin

(* Consumption accounting is per (me, origin) — credits meter the pair,
   whichever flows the bytes belong to — so every assembler of the pair
   hooks [rx_pop]. *)
let rx_state t ~me ~origin =
  memo t.rx (me, origin) (fun () ->
      let rec rx =
        {
          rx_next = 0;
          rx_consumed = 0;
          rx_last_grant = 0;
          rx_asm = pp_make ();
          rx_pop = (fun n -> note_consumed t rx ~me ~origin n);
        }
      in
      rx)

(* A grant (or probe answer) reached the flow's origin [me]. Grants are
   cumulative, so reordered or duplicated ones apply monotonically. *)
let handle_crd t ~me header payload =
  let origin = header.Generic_tm.origin in
  (match (t.rel, header.Generic_tm.ack) with
  | Some r, true -> handle_ack t r header
  | _ -> ());
  match t.credits with
  | None -> () (* stray credit packet on a credit-less vchannel *)
  | Some c ->
      if header.Generic_tm.payload_len >= 4 then begin
        let consumed = Int32.to_int (Bytes.get_int32_le payload 0) in
        let tx = tx_state t ~src:me ~dst:origin in
        if consumed > tx.tx_granted then begin
          tx.tx_granted <- consumed;
          Condition.broadcast tx.tx_cond
        end
      end
      else if node_up t me then
        (* Zero-window probe: answer with the current consumed count,
           unless this host is down. *)
        send_grant t c (rx_state t ~me ~origin) ~me ~origin

(* Cumulative ack from [me] back to the flow's origin, riding the normal
   routed path as a zero-payload packet. Best-effort: a lost or
   unroutable ack only delays trimming of the origin's log. *)
let send_ack t rx ~me ~origin =
  if rx.rx_next > 0 then
    ship_detached t ~kind:"ack" ~at:me
      { (Generic_tm.header ~origin:me ~final_dst:origin ~payload_len:0) with
        seq = (rx.rx_next - 1) land 0xffff;
        ack = true;
      }
      Bytes.empty

(* Session handshake, received by a freshly restarted node: the peer
   tells us where its delivery journal stands ([seq] = next sequence it
   expects from us) and which restart epoch it is answering ([payload] =
   our epoch, 4 bytes LE — it rides as real payload so gateways forward
   it like any other packet). We resume our send cursor at the highest
   such expectation and unblock sends that were waiting on the lost
   cursor. A handshake for a previous epoch is stale and ignored. *)
let handle_hs t r ~me header payload =
  let peer = header.Generic_tm.origin in
  let epoch =
    if Bytes.length payload >= 4 then Int32.to_int (Bytes.get_int32_le payload 0)
    else -1
  in
  if epoch = Simnet.Faults.epoch r.faults me then begin
    let tx = tx_state t ~src:me ~dst:peer in
    tx.tx_seq <- max tx.tx_seq header.Generic_tm.seq;
    tx.tx_lost <- false;
    r.handshakes <- r.handshakes + 1;
    Waiters.wake_all r.hs_waiters
  end

(* Block a send on a flow whose cursor was lost to a crash until the
   peer's handshake restores it — or patience runs out (peer never comes
   back, or never held any of our data so no handshake will come). *)
let wait_handshake t r tx ~src ~dst =
  let restored () = not tx.tx_lost in
  let name = "vchannel.handshake" in
  if not (wait_patiently t r.hs_waiters ~name ~until:restored) then
    raise
      (Partitioned
         (Printf.sprintf
            "Vchannel: flow %d->%d lost its session to a crash and no \
             handshake restored it"
            src dst))

(* ------------------------------------------------------------------ *)
(* Live topology: the join/drain control plane. Membership changes are
   arbitrated by the coordinator; requests and acknowledgments travel
   as [top] packets on the data path (gateways forward them like data),
   and the epoch swap itself is [apply_swap]: publish the new snapshot,
   recompute routes, re-emit only the flows whose routes changed. *)

let top_join_req = 1
let top_join_ack = 2
let top_drain_req = 3

(* Election ops ride the same [top] control plane. Their payload is the
   9-byte membership layout extended by two fields: the sender's highest
   committed epoch and a watermark — the candidate's delivery-journal
   depth on a vote request (the audit surface for highest-committed-wins
   reconciliation), the voter's crash epoch on a vote ack (what lets the
   candidate discard ballots from voters that have since restarted). *)
let top_vote_req = 4
let top_vote_ack = 5
let top_coord = 6
let top_payload_size = 9
let top_ext_payload_size = 17

let top_payload ~op ~rank ~epoch =
  let b = Bytes.create top_payload_size in
  Bytes.set b 0 (Char.chr op);
  Bytes.set_int32_le b 1 (Int32.of_int rank);
  Bytes.set_int32_le b 5 (Int32.of_int epoch);
  b

let top_ext_payload ~op ~rank ~term ~committed ~watermark =
  let b = Bytes.create top_ext_payload_size in
  Bytes.set b 0 (Char.chr op);
  Bytes.set_int32_le b 1 (Int32.of_int rank);
  Bytes.set_int32_le b 5 (Int32.of_int term);
  Bytes.set_int32_le b 9 (Int32.of_int committed);
  Bytes.set_int32_le b 13 (Int32.of_int watermark);
  b

(* A [top] control packet's header; the length is the payload's. *)
let top_header ~src ~dst payload =
  { (Generic_tm.header ~origin:src ~final_dst:dst
       ~payload_len:(Bytes.length payload)) with
    top = true;
  }

(* Fire-and-forget [top] packet. *)
let send_top t ~src ~dst payload =
  ship_detached t ~kind:"top" ~at:src (top_header ~src ~dst payload) payload

(* Park until [until ()] holds or patience runs out; epoch swaps wake
   every parked thread. Returns whether the condition was reached. *)
let topo_wait t lv ~until =
  wait_patiently t lv.lv_waiters ~name:"vchannel.topology" ~until

let shares_channel t a b =
  List.exists
    (fun c -> List.mem a (Channel.ranks c) && List.mem b (Channel.ranks c))
    t.channels

(* Withdraw one observer's suspicion, keeping the by-any count in step. *)
let unsuspect r ((_, p) as key) =
  Hashtbl.remove r.suspected key;
  match Hashtbl.find_opt r.susp_count p with
  | Some n when n <= 1 -> Hashtbl.remove r.susp_count p
  | Some n -> Hashtbl.replace r.susp_count p (n - 1)
  | None -> ()

(* Drop every suspicion record involving [rank] — as the suspect (any
   observer's entry) and as an observer (its own verdicts die with its
   departure). *)
let unsuspect_all r rank =
  Hashtbl.fold
    (fun ((o, p) as key) () acc ->
      if o = rank || p = rank then key :: acc else acc)
    r.suspected []
  |> List.iter (unsuspect r)

let sentinels_learn t rank =
  match t.rel with
  | None -> ()
  | Some r ->
      unsuspect_all r rank;
      Hashtbl.iter
        (fun me s ->
          if me <> rank && shares_channel t me rank then Sentinel.learn s rank)
        r.sentinels

(* Dropping a departed rank from every detector is what keeps a
   long-lived elastic session's phi-accrual state from growing without
   bound — and what stops a sentinel from suspecting a rank that left
   gracefully. Sentinel.forget also voids the rank's recorded ballots,
   so a drained rank stops counting toward any quorum. *)
let sentinels_forget t rank =
  match t.rel with
  | None -> ()
  | Some r ->
      unsuspect_all r rank;
      Hashtbl.iter
        (fun me s -> if me <> rank then Sentinel.forget s rank)
        r.sentinels

(* ------------------------------------------------------------------ *)
(* Route refresh: one path for epoch swaps, Overloaded edges, crashes,
   restarts and sentinel verdicts. *)

(* The lock that serializes emission for a (src, dst) pair: with a
   scheduler it is the scheduler's pair lock (aggregates are numbered
   and shipped under it), without one it is the flow-0 message lock —
   the only flow that exists. Crash re-emission must hold it so
   re-emitted packets cannot interleave with a packet being emitted. *)
let emission_lock t ~src ~dst =
  match t.sched with
  | Some sc -> Sched.pair_lock sc ~src ~dst
  | None -> send_lock t ~src ~dst ~flow:0

(* After a membership change, re-emit every unacknowledged packet of
   the affected live flows over the recomputed routes ([only] narrows
   the set — an epoch swap re-emits just the flows whose route actually
   changed). One daemon per flow; it takes the flow's message lock so
   re-emitted packets cannot interleave with (and overtake) a message
   in progress — the receiver's sequence check would then discard the
   overtaken packets for good. *)
let reemit_flows ?(only = fun _ _ -> true) t r =
  Hashtbl.iter
    (fun (src, dst) { tx_log = q; _ } ->
      if only src dst && Simnet.Faults.node_up r.faults src
         && not (Queue.is_empty q)
      then
        Engine.spawn t.engine ~daemon:true
          ~name:(Printf.sprintf "vchannel.reemit.%d->%d" src dst)
          (fun () ->
            Mutex.lock (emission_lock t ~src ~dst);
            let snapshot = List.of_seq (Queue.to_seq q) in
            (try
               List.iter
                 (fun (seq, header, payload) ->
                   (* Skip packets acked while we waited for the lock. *)
                   if Queue.fold (fun f (s, _, _) -> f || s = seq) false q
                   then begin
                     r.reemitted <- r.reemitted + 1;
                     ship_packet t ~at:src ~header ~payload
                       ~payload_len:(Bytes.length payload)
                   end)
                 snapshot
             with Partitioned _ | Config.Peer_unreachable _ -> ());
            Mutex.unlock (emission_lock t ~src ~dst)))
    t.tx

(* Whether the hop [viewer -> n] is unusable. Non-members of the
   current epoch are excluded from routing exactly like crashed nodes:
   never a relay, never an endpoint. With no live topology every
   physical rank is a member and the predicate reduces to the
   crash/suspicion test — routes (and the schedule) are byte-identical
   to a fixed-topology vchannel. With an election plane suspicion is
   viewer-relative: the hop exists only when the viewer's own sentinel
   trusts [n], so under a symmetric partition each side keeps full
   routes within itself instead of everyone going dark because somebody
   somewhere suspects them. *)
let down t =
  let member n =
    match t.live with None -> true | Some lv -> Topology.mem lv.lv_snapshot n
  in
  match t.rel with
  | None -> fun _viewer n -> not (member n)
  | Some r when election t ->
      fun viewer n ->
        (not (member n))
        || (not (Simnet.Faults.node_up r.faults n))
        || (viewer <> n && Hashtbl.mem r.suspected (viewer, n))
  | Some r ->
      fun _viewer n ->
        (not (member n))
        || (not (Simnet.Faults.node_up r.faults n))
        || Hashtbl.mem r.susp_count n

let fresh_routes t = compute_routes ~down:(down t) t.channels t.all_ranks

(* Recompute a reliable vchannel's routes and wake the senders waiting
   out a route hole. Prefer routes that avoid Overloaded gateways —
   shifting traffic onto an alternate gateway when one exists — but
   never at the price of reachability: pairs only connected through an
   overloaded node keep their direct route. *)
let recompute t r =
  let fresh = fresh_routes t in
  if Hashtbl.length t.overloaded > 0 then begin
    let down = down t in
    let down_or_overloaded u n = down u n || Hashtbl.mem t.overloaded n in
    let strict =
      compute_routes ~down:down_or_overloaded t.channels t.all_ranks
    in
    Hashtbl.iter (fun key hops -> Hashtbl.replace fresh key hops) strict
  end;
  t.routes <- fresh;
  Waiters.wake_all r.route_waiters

let route_sig routes =
  Hashtbl.fold
    (fun key hops acc ->
      (key, List.map (fun h -> (Channel.id h.hop_channel, h.hop_to)) hops)
      :: acc)
    routes []
  |> List.sort compare

(* An epoch swap or an Overloaded edge on a reliable vchannel: recompute
   the routes, then re-emit ONLY the flows whose route actually changed
   (switching routes mid-flow can strand packets the destination's
   sequence check discarded as overtakers), under each flow's emission
   lock. An edge with no alternate gateway changes no route and
   re-emits nothing — re-emitting into an already-overloaded path would
   feed the congestion it is reporting. *)
let swap_routes t r =
  let before = route_sig t.routes in
  recompute t r;
  let after = route_sig t.routes in
  if after <> before then
    reemit_flows t r ~only:(fun src dst ->
        List.assoc_opt (src, dst) before <> List.assoc_opt (src, dst) after)

(* Without a fault plane an epoch swap only recomputes the routes:
   nothing is logged for re-emission. *)
let apply_swap t lv snap =
  lv.lv_snapshot <- snap;
  lv.lv_coordinator <- Topology.coordinator snap;
  (match t.rel with
  | Some r -> swap_routes t r
  | None -> t.routes <- fresh_routes t);
  t.on_health_change ();
  Waiters.wake_all lv.lv_waiters

(* The members of [viewer]'s side of the world: reachable over hops
   whose sender trusts the receiver (the routes are computed with the
   edge-shaped [down] predicate, so presence of a route IS trust-path
   reachability), plus [viewer] itself. Under no partition this is the
   whole live membership. *)
let side_members t lv ~viewer =
  List.filter
    (fun m ->
      node_up t m
      && (m = viewer || Hashtbl.mem t.routes (viewer, m)))
    (Topology.ranks lv.lv_snapshot)

(* The ballot quorum in force right now. Unpinned, it is a majority of
   the CURRENT committed membership, not of the founding one — so a
   legitimately shrunk topology (drains below the founding majority)
   keeps its liveness, while two disjoint partition sides still can
   never both hold a majority of the same membership. *)
let quorum_needed lv el =
  match el.el_quorum with
  | Some q -> q
  | None -> (List.length (Topology.ranks lv.lv_snapshot) / 2) + 1

let side_has_quorum t lv el ~viewer =
  List.length (side_members t lv ~viewer) >= quorum_needed lv el

(* Depth of a rank's delivery journals — the watermark a candidacy
   carries so reconciliation debates are auditable on the wire. *)
let journal_watermark t rank =
  Hashtbl.fold
    (fun (me, _) rx acc -> if me = rank then acc + rx.rx_next else acc)
    t.rx 0

let handle_top t ~me header payload =
  match t.live with
  | None -> () (* stray control packet on a fixed-topology vchannel *)
  | Some lv ->
      if node_up t me && Bytes.length payload >= top_payload_size then begin
        let op = Char.code (Bytes.get payload 0) in
        let rank = Int32.to_int (Bytes.get_int32_le payload 1) in
        ignore header;
        (* A coordinator that cannot see a quorum refuses to bump the
           epoch: a partitioned minority must surface typed errors, not
           diverge from the majority's membership history. Without an
           election plane the static coordinator always commits. *)
        let may_commit () =
          match lv.lv_elect with
          | None -> true
          | Some el ->
              let ok = side_has_quorum t lv el ~viewer:me in
              if not ok then el.el_refusals <- el.el_refusals + 1;
              ok
        in
        if op = top_join_req then begin
          if
            me = lv.lv_coordinator
            && (not (Topology.mem lv.lv_snapshot rank))
            && may_commit ()
          then begin
            let snap = Topology.join lv.lv_snapshot rank in
            lv.lv_joins <- lv.lv_joins + 1;
            Hashtbl.remove lv.lv_draining rank;
            sentinels_learn t rank;
            apply_swap t lv snap;
            (* The swap above made the joiner routable; the ack rides
               the recomputed routes and carries the epoch it joined. *)
            send_top t ~src:me ~dst:rank
              (top_payload ~op:top_join_ack ~rank ~epoch:(Topology.epoch snap))
          end
        end
        else if op = top_join_ack then Waiters.wake_all lv.lv_waiters
        else if op = top_drain_req then begin
          if
            me = lv.lv_coordinator
            && Topology.mem lv.lv_snapshot rank
            && rank <> lv.lv_coordinator
            && may_commit ()
          then begin
            let snap = Topology.drain lv.lv_snapshot rank in
            lv.lv_drains <- lv.lv_drains + 1;
            Hashtbl.remove lv.lv_draining rank;
            Hashtbl.remove t.overloaded rank;
            sentinels_forget t rank;
            apply_swap t lv snap
          end
        end
        else if Bytes.length payload >= top_ext_payload_size then begin
          let term = Int32.to_int (Bytes.get_int32_le payload 5) in
          let committed = Int32.to_int (Bytes.get_int32_le payload 9) in
          let watermark = Int32.to_int (Bytes.get_int32_le payload 13) in
          if op = top_vote_req then begin
            (* [rank] asks for this rank's ballot in [term]. Refuse
               candidates behind our committed epoch (highest-committed
               wins on merge) and grant at most one ballot per term; the
               ack carries our crash epoch so the candidate can discard
               the ballot if we restart before it counts. *)
            match lv.lv_elect with
            | Some el when Topology.mem lv.lv_snapshot me ->
                let r = el.el_rel in
                el.el_term <- max el.el_term term;
                if committed >= Topology.epoch lv.lv_snapshot then begin
                  match Hashtbl.find_opt r.sentinels me with
                  | Some s when Sentinel.grant_vote s ~term ->
                      send_top t ~src:me ~dst:rank
                        (top_ext_payload ~op:top_vote_ack ~rank:me ~term
                           ~committed:(Topology.epoch lv.lv_snapshot)
                           ~watermark:(Simnet.Faults.epoch r.faults me))
                  | _ -> ()
                end
            | _ -> ()
          end
          else if op = top_vote_ack then begin
            (* A ballot granted to this rank: [watermark] is the voter's
               crash epoch at the grant. *)
            match lv.lv_elect with
            | Some el ->
                (match Hashtbl.find_opt el.el_rel.sentinels me with
                | Some s ->
                    Sentinel.record_ballot s ~voter:rank ~term
                      ~voter_epoch:watermark
                | None -> ());
                Waiters.wake_all lv.lv_waiters
            | None -> ()
          end
          else if op = top_coord then
            (* Commit announcement from the winner; the swap itself
               already happened at the electorate's shared snapshot —
               this packet is what makes the result observable on the
               wire and wakes anyone parked on the old coordinator. *)
            Waiters.wake_all lv.lv_waiters
        end
      end

(* ------------------------------------------------------------------ *)
(* Collective control plane. The Collectives layer (see collectives.ml)
   rides [col] packets over the ordinary forwarding path: contributions
   travel up a spanning tree, decisions travel down it, and gateways
   forward them like data. The vchannel stays policy-free here — it
   only delivers [col] payloads to whatever handler the layer installed
   and ships the ones the layer emits, exactly like the [top] plane. *)

let send_col t ~src ~dst payload =
  check_ranks t "send_col" src dst;
  ship_detached t ~kind:"col" ~at:src
    { (Generic_tm.header ~origin:src ~final_dst:dst
         ~payload_len:(Bytes.length payload)) with
      col = true;
    }
    payload

let set_on_col t f = t.on_col <- f
let set_on_health_change t f = t.on_health_change <- f

let handle_col t ~me header payload =
  if node_up t me then t.on_col ~me ~origin:header.Generic_tm.origin payload

(* Physical neighbours: the ranks sharing at least one channel with
   [rank], in channel-list then member-list order. The Collectives
   layer builds its spanning trees over this graph, so every tree edge
   is a single fabric link and interior nodes are genuine gateways. *)
let neighbours t rank =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun c ->
      let members = Channel.ranks c in
      if List.mem rank members then
        List.iter
          (fun v ->
            if v <> rank && not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              out := v :: !out
            end)
          members)
    t.channels;
  List.rev !out

(* A joining rank is not yet routable (routes exclude non-members), so
   its join request takes one membership-blind physical hop toward the
   coordinator; from that member node on, the packet rides the normal
   routed path like any transit packet. *)
let ship_top_physical t ~at ~dst payload =
  let down _viewer n = not (node_up t n) in
  let phys = compute_routes ~down t.channels t.all_ranks in
  match Hashtbl.find_opt phys (at, dst) with
  | Some (hop :: _) -> (
      try
        send_hop ~at hop ~header:(top_header ~src:at ~dst payload) ~payload
          ~payload_len:(Bytes.length payload)
      with Config.Peer_unreachable msg -> raise (Partitioned msg))
  | Some [] | None ->
      raise
        (Partitioned
           (Printf.sprintf
              "Vchannel.join: no physical path from %d to coordinator %d" at
              dst))

(* [rank]'s membership requests to the coordinator: a join takes the
   physical first hop above, a drain notice the routed path. *)
let ship_join_req t lv rank =
  ship_top_physical t ~at:rank ~dst:lv.lv_coordinator
    (top_payload ~op:top_join_req ~rank ~epoch:(Topology.epoch lv.lv_snapshot))

let ship_drain_req t lv rank =
  let payload =
    top_payload ~op:top_drain_req ~rank ~epoch:(Topology.epoch lv.lv_snapshot)
  in
  ship_packet t ~at:rank
    ~header:(top_header ~src:rank ~dst:lv.lv_coordinator payload)
    ~payload ~payload_len:top_payload_size

(* ------------------------------------------------------------------ *)
(* Quorum elections. A candidacy is one epoch-numbered round: term =
   current epoch + 1, a self-vote plus vote requests to every live
   member, then a patience-bounded wait for [el_quorum] countable
   ballots. The commit is [Topology.with_coordinator], which advances
   the epoch to exactly the term — and is guarded by a lost-race
   re-check, so of two concurrent candidacies in the same term at most
   one ever commits that epoch. A minority side's candidacy simply
   never reaches quorum and is recorded as a refusal. *)

(* The lowest live member of [viewer]'s side — who should stand. *)
let elect_candidate t lv ~viewer =
  match side_members t lv ~viewer with c :: _ -> Some c | [] -> None

(* The lowest member of the current epoch that is up: who stands when
   there is no trust view to ask — the coordinator crashed (the fault
   plane's word is definitive), or an outsider's join went unanswered. *)
let lowest_live_member lv el =
  List.find_opt
    (fun m -> Simnet.Faults.node_up el.el_rel.faults m)
    (Topology.ranks lv.lv_snapshot)

let run_election t lv el ~candidate =
  let r = el.el_rel in
  if el.el_running then
    (* A candidacy is already in flight; park until it settles so
       callers retrying a join/drain observe its outcome. *)
    ignore (topo_wait t lv ~until:(fun () -> not el.el_running))
  else begin
    el.el_running <- true;
    el.el_attempts <- el.el_attempts + 1;
    let started = Engine.now t.engine in
    let term = Topology.epoch lv.lv_snapshot + 1 in
    el.el_term <- max el.el_term term;
    let committed = Topology.epoch lv.lv_snapshot in
    (match Hashtbl.find_opt r.sentinels candidate with
    | None -> el.el_refusals <- el.el_refusals + 1
    | Some s ->
        if Sentinel.grant_vote s ~term then
          Sentinel.record_ballot s ~voter:candidate ~term
            ~voter_epoch:(Simnet.Faults.epoch r.faults candidate);
        List.iter
          (fun peer ->
            if peer <> candidate && Simnet.Faults.node_up r.faults peer then
              send_top t ~src:candidate ~dst:peer
                (top_ext_payload ~op:top_vote_req ~rank:candidate ~term
                   ~committed ~watermark:(journal_watermark t candidate)))
          (Topology.ranks lv.lv_snapshot);
        let quorum_now () =
          List.length (Sentinel.ballots s ~term) >= quorum_needed lv el
        in
        let won = topo_wait t lv ~until:quorum_now in
        if
          won
          && Topology.epoch lv.lv_snapshot < term
          && candidate <> Topology.coordinator lv.lv_snapshot
        then begin
          let snap = Topology.with_coordinator lv.lv_snapshot candidate in
          el.el_elections <- el.el_elections + 1;
          el.el_commits <- (Topology.epoch snap, candidate) :: el.el_commits;
          el.el_last_latency <- Time.diff (Engine.now t.engine) started;
          apply_swap t lv snap;
          List.iter
            (fun peer ->
              if peer <> candidate then
                send_top t ~src:candidate ~dst:peer
                  (top_ext_payload ~op:top_coord ~rank:candidate ~term
                     ~committed:(Topology.epoch snap)
                     ~watermark:(journal_watermark t candidate)))
            (Topology.ranks lv.lv_snapshot)
        end
        else if not won then el.el_refusals <- el.el_refusals + 1);
    el.el_running <- false;
    Waiters.wake_all lv.lv_waiters
  end

(* Post-heal reconciliation: the shared snapshot already embodies the
   majority's history (highest-committed-wins is structural — the
   minority was refused every bump), so merging is replaying the
   loser's suppressed join/drain intents through the winning
   coordinator. Idempotent against the coordinator's membership guards;
   intents that still cannot get through go back on the pending list
   for the next heal. *)
let replay_pending t lv el =
  let pend = List.rev el.el_pending in
  el.el_pending <- [];
  List.iter
    (fun intent ->
      match intent with
      | P_join rank ->
          if not (Topology.mem lv.lv_snapshot rank) then begin
            let attempt () =
              (try ship_join_req t lv rank
               with Partitioned _ | Config.Peer_unreachable _ -> ());
              topo_wait t lv ~until:(fun () ->
                  Topology.mem lv.lv_snapshot rank)
            in
            if not (attempt () || attempt ()) then
              el.el_pending <- P_join rank :: el.el_pending
          end
      | P_drain rank ->
          if
            Topology.mem lv.lv_snapshot rank && rank <> lv.lv_coordinator
          then begin
            (* The routed drain notification needs the trust paths back
               first: suspicion drains via Up probes shortly after the
               heal, so wait for the rank-to-coordinator route before
               shipping (patience-bounded; a failed ship is retried
               once, then the intent goes back on the pending list). *)
            ignore
              (topo_wait t lv ~until:(fun () ->
                   Hashtbl.mem t.routes (rank, lv.lv_coordinator)));
            let attempt () =
              (try ship_drain_req t lv rank
               with Partitioned _ | Config.Peer_unreachable _ -> ());
              topo_wait t lv ~until:(fun () ->
                  not (Topology.mem lv.lv_snapshot rank))
            in
            if not (attempt () || attempt ()) then
              el.el_pending <- P_drain rank :: el.el_pending
          end)
    pend

(* Deliver a packet that reached its final node. Reliable vchannels
   accept only the expected sequence number (re-emitted duplicates and
   overtaking packets are dropped) and acknowledge cumulatively. *)
let deliver_local t ~me header payload =
  let origin = header.Generic_tm.origin in
  let rx = rx_state t ~me ~origin in
  (* One frame of [flow]. A message start hooks the flow's assembler to
     the pair's consumption accounting before announcing itself: a
     receiver blocked in [begin_unpacking_from] may have made the
     endpoint before the pair's first packet, and only a receiver that
     took a start drains the assembler. *)
  let frame ~flow ~first ~last chunk =
    let ep = endpoint t ~me ~origin ~flow in
    if first then begin
      ep.ep_asm.Assembler.on_pop <- rx.rx_pop;
      Mailbox.put ep.ep_starts ();
      Mailbox.put (incoming t ~me) (origin, flow)
    end;
    if Bytes.length chunk > 0 then begin
      pp_add rx.rx_asm (Bytes.length chunk);
      Assembler.push ep.ep_asm (Assembler.Data chunk)
    end;
    if last then Assembler.push ep.ep_asm Assembler.End_of_message
  in
  let accept () =
    if header.Generic_tm.agg then begin
      (* Aggregate: split the train back into per-flow frames. Each
         frame is one Data chunk in its flow's assembler, so the
         consumption hook fires once per constituent frame — matching
         the one credit the origin charged for it. *)
      let total = Bytes.length payload in
      let off = ref 0 in
      while !off < total do
        let flow, first, last, len =
          Generic_tm.decode_flow_frame_header payload !off
        in
        off := !off + Generic_tm.flow_frame_header_size;
        frame ~flow ~first ~last (Bytes.sub payload !off len);
        off := !off + len
      done
    end
    else
      frame ~flow:0 ~first:header.Generic_tm.first ~last:header.Generic_tm.last
        payload
  in
  match t.rel with
  | None -> accept ()
  | Some r ->
      touch_sentinel r ~rank:me;
      if header.Generic_tm.seq = rx.rx_next then begin
        rx.rx_next <- (rx.rx_next + 1) land 0xffff;
        accept ()
      end
      else r.dup_drops <- r.dup_drops + 1;
      send_ack t rx ~me ~origin

(* ------------------------------------------------------------------ *)
(* Gateway watermarks: Overloaded load reports with hysteresis *)

let inform_sentinels t node flag =
  match t.rel with
  | None -> ()
  | Some r ->
      Hashtbl.iter
        (fun me s -> if me <> node then Sentinel.set_overloaded s ~peer:node flag)
        r.sentinels

let set_overload t node flag =
  if flag then begin
    if not (Hashtbl.mem t.overloaded node) then begin
      Hashtbl.replace t.overloaded node ();
      t.overload_events <- t.overload_events + 1;
      inform_sentinels t node true;
      Option.iter (swap_routes t) t.rel;
      t.on_health_change ()
    end
  end
  else if Hashtbl.mem t.overloaded node then begin
    Hashtbl.remove t.overloaded node;
    inform_sentinels t node false;
    Option.iter (swap_routes t) t.rel;
    t.on_health_change ()
  end

(* Clearing is held for {!Config.overload_hold}: a pool oscillating one
   slot below full at line rate must not flap its status (and, on
   reliable vchannels, thrash route recomputations). The generation
   counter cancels a pending clear when the pool fills again. *)
let maybe_clear_overload t node gw =
  gw.gw_gen <- gw.gw_gen + 1;
  let gen = gw.gw_gen in
  Engine.at t.engine
    (Time.add (Engine.now t.engine) Config.overload_hold)
    (fun () ->
      if gw.gw_gen = gen && gw.gw_slots.pp_cur <= t.gw_low then
        set_overload t node false)

(* Taking / returning a forwarding buffer. The acquire blocking on a
   full pool IS the hop-by-hop backpressure: a dispatcher that cannot
   take a buffer stops consuming its incoming channel, the sending side
   of the previous hop blocks in turn, and the pressure propagates back
   to the origin's credit window instead of accumulating in a queue. *)
let gw_acquire t ~node p =
  Semaphore.acquire p.pump_buffers;
  if t.overload_track then begin
    let gw = gateway t node in
    pp_add gw.gw_slots 1;
    (* Refilling past the low watermark cancels any pending clear: the
       status drops back to Up only if the pool *stayed* drained for the
       whole hold, not if the timer happened to fire during the
       microsecond dip between one forward's release and the next
       packet's acquire. *)
    if gw.gw_slots.pp_cur > t.gw_low then gw.gw_gen <- gw.gw_gen + 1;
    if gw.gw_slots.pp_cur >= t.gw_pool then set_overload t node true
  end

let gw_release t ~node p =
  if t.overload_track then begin
    let gw = gateway t node in
    pp_sub gw.gw_slots 1;
    if gw.gw_slots.pp_cur <= t.gw_low && Hashtbl.mem t.overloaded node then
      maybe_clear_overload t node gw
  end;
  Semaphore.release p.pump_buffers

let rec pump_for t ~node (hop : hop) =
  let key = (node, Channel.id hop.hop_channel, hop.hop_to) in
  match Hashtbl.find_opt t.pumps key with
  | Some p -> p
  | None ->
      let p =
        {
          pump_q = Mailbox.create ();
          pump_buffers = Semaphore.create t.gw_pool;
        }
      in
      Hashtbl.add t.pumps key p;
      spawn_forwarder t ~node p;
      p

and spawn_forwarder t ~node p =
  let gw = gateway t node in
  Engine.spawn t.engine ~daemon:true
    ~name:(Printf.sprintf "vchannel.forward.%d" node)
    (fun () ->
      while true do
        let header, payload = Mailbox.take p.pump_q in
        gw.gw_packets <- gw.gw_packets + 1;
        gw.gw_bytes <- gw.gw_bytes + Bytes.length payload;
        (* The per-step software cost (buffer exchange, thread hand-off)
           sits between taking the buffer and re-emitting it, where the
           paper's +50 us/step analysis places it (§6.2.2). *)
        Engine.sleep t.gateway_overhead;
        (* A gateway that crashed with the packet in its pipeline drops
           it: the in-flight state dies; origins re-emit from their logs.
           So does one left with no route to the packet's destination. *)
        (if node_up t node then
           try
             ship_packet t ~at:node ~header ~payload
               ~payload_len:(Bytes.length payload)
           with Partitioned _ -> ());
        gw_release t ~node p
      done)

(* Dispatcher: one per (node, real channel). Receives every packet
   arriving on that channel, delivers local ones, pushes the rest into
   the forwarding pump of its outgoing link. *)
let spawn_dispatcher t ~node channel =
  let ep = Channel.endpoint channel ~rank:node in
  Engine.spawn t.engine ~daemon:true
    ~name:(Printf.sprintf "vchannel.dispatch.%d.ch%d" node (Channel.id channel))
    (fun () ->
      let hdr_bytes = Bytes.create Generic_tm.header_size in
      while true do
        let ic = Api.begin_unpacking ep in
        try
          Api.unpack ic ~r_mode:Iface.Receive_express hdr_bytes;
          let header = Generic_tm.decode_header hdr_bytes in
          let len = header.Generic_tm.payload_len in
          (* Mirror of the sender's transit flag in [send_hop]: the hop is
             endpoint-to-endpoint iff it runs origin -> final_dst. *)
          let transit =
            Api.remote_rank ic <> header.Generic_tm.origin
            || header.Generic_tm.final_dst <> node
          in
          let read_payload () =
            let payload = Bytes.create len in
            if len > 0 then
              Api.unpack ic ~r_mode:Iface.Receive_cheaper ~transit payload;
            Api.end_unpacking ic;
            payload
          in
          if header.Generic_tm.final_dst = node then begin
            let payload = read_payload () in
            let { Generic_tm.col; top; hs; crd; ack; _ } = header in
            match t.rel with
            | _ when col -> handle_col t ~me:node header payload
            | _ when top -> handle_top t ~me:node header payload
            | Some r when hs -> handle_hs t r ~me:node header payload
            | _ when crd -> handle_crd t ~me:node header payload
            | Some r when ack -> handle_ack t r header
            | _ when not (node_up t node) ->
                (* The destination host is down: the data dies with it;
                   the origin's log re-emits once it comes back. *)
                ()
            | _ -> deliver_local t ~me:node header payload
          end
          else
            match next_hop t ~at:node ~dst:header.Generic_tm.final_dst with
            | exception Partitioned _ ->
                (* Unroutable transit packet (its destination crashed):
                   consume and drop. *)
                ignore (read_payload ())
            | hop ->
                (* Bandwidth control (the paper's future-work §7): pace the
                   consumption of forwarded traffic so the incoming NIC
                   cannot monopolize the gateway's PCI bus. *)
                (match t.ingress_cap_mb_s with
                | None -> ()
                | Some cap ->
                    let gw = gateway t node in
                    let now = Engine.now t.engine in
                    if Time.( < ) now gw.gw_next_ingress then
                      Engine.sleep (Time.diff gw.gw_next_ingress now);
                    let budget =
                      Time.bytes_at_rate
                        ~bytes_count:(len + Generic_tm.header_size)
                        ~mb_per_s:cap
                    in
                    gw.gw_next_ingress <-
                      Time.add (Engine.now t.engine) budget);
                (* Take one of the outgoing direction's two pipeline
                   buffers before extracting, then hand the packet to the
                   send side of that pump (Fig. 9). *)
                let p = pump_for t ~node hop in
                gw_acquire t ~node p;
                let payload =
                  try read_payload ()
                  with e ->
                    gw_release t ~node p;
                    raise e
                in
                if t.extra_gateway_copy && len > 0 then
                  Engine.sleep
                    (Time.bytes_at_rate ~bytes_count:len
                       ~mb_per_s:Simnet.Netparams.memcpy_rate_mb_s);
                Mailbox.put p.pump_q (header, payload)
        with Config.Peer_unreachable _ ->
          (* A source host crashed with the tail of this packet still in
             its socket buffer: the remaining bytes can never arrive.
             Abandon the partial message and go back to listening — the
             origin's unacknowledged-packet log re-emits the packet
             whole over the recomputed routes. *)
          Api.abort_unpacking ic
      done)

(* A sender out of credits parks on the flow's condition variable until
   the receiver's grants catch up. While blocked it ships a zero-window
   probe every {!Config.credit_probe_interval} (recovering grants lost
   to crash paths), and on a reliable vchannel it rides out route holes
   with the usual patience — a flow whose destination never comes back
   surfaces as [Partitioned] here exactly as it would in [ship_packet]. *)
let wait_credit t c tx ~src ~dst =
  if tx.tx_shipped - tx.tx_granted >= c.cr_budget then begin
    c.cr_stalls <- c.cr_stalls + 1;
    while tx.tx_shipped - tx.tx_granted >= c.cr_budget do
      (match t.rel with
      | Some r when not (Hashtbl.mem t.routes (src, dst)) ->
          wait_route t r ~at:src ~dst
      | _ -> ());
      if tx.tx_shipped - tx.tx_granted >= c.cr_budget then begin
        let wake_at =
          Time.add (Engine.now t.engine) Config.credit_probe_interval
        in
        Engine.at t.engine wake_at (fun () -> Condition.broadcast tx.tx_cond);
        Mutex.lock tx.tx_mu;
        Condition.wait tx.tx_cond tx.tx_mu;
        Mutex.unlock tx.tx_mu;
        if
          tx.tx_shipped - tx.tx_granted >= c.cr_budget
          && Time.( <= ) wake_at (Engine.now t.engine)
        then send_probe t c ~src ~dst
      end
    done
  end;
  tx.tx_shipped <- tx.tx_shipped + 1

(* A reliable sender whose re-emission log is full parks until acks trim
   it: reliable mode obeys the same memory budget as every other point
   on the path. Acks are arrival-driven (the destination acknowledges
   every data packet it sees, consumed or not), so the log drains as
   long as the network delivers — only a crashed or partitioned peer
   stops it, and that surfaces as [Partitioned] below. *)
let wait_unacked t r ~src ~dst q =
  while Queue.length q >= t.unacked_cap do
    if not (Hashtbl.mem t.routes (src, dst)) then wait_route t r ~at:src ~dst;
    if Queue.length q >= t.unacked_cap then begin
      Waiters.park r.ack_waiters ~name:"vchannel.unacked"
        ~deadline:(t.engine, Time.add (Engine.now t.engine) t.patience);
      if
        Queue.length q >= t.unacked_cap
        && not (Simnet.Faults.node_up r.faults dst)
      then
        raise
          (Partitioned
             (Printf.sprintf
                "Vchannel: flow %d->%d blocked on a full unacked log and \
                 its peer crashed"
                src dst))
    end
  done

(* The tail every data packet takes at its origin, scheduled or not:
   charge [charge] credits, number the packet once any crash-lost cursor
   is restored, log a copy for re-emission (bounded: waits for acks to
   trim the log), then ship. The first [payload_len] bytes of [payload]
   are the packet's. *)
let emit_data t ~charge header payload =
  let src = header.Generic_tm.origin and dst = header.Generic_tm.final_dst in
  let payload_len = header.Generic_tm.payload_len in
  let header =
    match (t.credits, t.rel) with
    | None, None -> header
    | credits, rel -> (
        let tx = tx_state t ~src ~dst in
        Option.iter
          (fun c ->
            for _ = 1 to charge do
              wait_credit t c tx ~src ~dst
            done)
          credits;
        match rel with
        | None -> header
        | Some r ->
            wait_handshake t r tx ~src ~dst;
            let seq = tx.tx_seq in
            tx.tx_seq <- (seq + 1) land 0xffff;
            let header = { header with seq } in
            let q = tx.tx_log in
            wait_unacked t r ~src ~dst q;
            Queue.push (seq, header, Bytes.sub payload 0 payload_len) q;
            tx.tx_log_peak <- max tx.tx_log_peak (Queue.length q);
            header)
  in
  ship_packet t ~at:src ~header ~payload ~payload_len

(* Emit one aggregate: the scheduler's [emit] callback, running with the
   pair's emission lock held. Credits: one per data-carrying
   constituent frame — the receiver's assembler pops each frame as its
   own chunk, so consumption-side accounting matches exactly.
   Reliability: the whole aggregate takes ONE sequence number and ONE
   re-emission log slot, riding the TCP window as one frame. Gateways
   never look inside: the train is ordinary payload to every pump on
   the route. *)
let emit_one_aggregate t ~src ~dst frames =
  let payload_len =
    List.fold_left
      (fun acc fr ->
        acc + Generic_tm.flow_frame_header_size + Bytes.length fr.Sched.fr_data)
      0 frames
  in
  let payload = Bytes.create payload_len in
  let _ =
    List.fold_left
      (fun off fr ->
        let data_len = Bytes.length fr.Sched.fr_data in
        let hdr =
          Generic_tm.encode_flow_frame_header ~flow:fr.Sched.fr_flow
            ~first:fr.Sched.fr_first ~last:fr.Sched.fr_last ~len:data_len
        in
        Bytes.blit hdr 0 payload off Generic_tm.flow_frame_header_size;
        let off = off + Generic_tm.flow_frame_header_size in
        Bytes.blit fr.Sched.fr_data 0 payload off data_len;
        off + data_len)
      0 frames
  in
  emit_data t
    ~charge:
      (List.length
         (List.filter (fun fr -> Bytes.length fr.Sched.fr_data > 0) frames))
    { (Generic_tm.header ~origin:src ~final_dst:dst ~payload_len) with
      agg = true;
    }
    payload

(* The scheduler's [emit] callback. One aggregate may never need more
   credits than the pair's whole budget: the per-frame charge happens
   before the packet ships, so grants for its own frames cannot arrive
   while it waits — a train of more data frames than [cr_budget] would
   deadlock. Split such trains so each wire packet charges at most the
   budget. *)
let emit_frames t ~src ~dst frames =
  match t.credits with
  | None -> emit_one_aggregate t ~src ~dst frames
  | Some c ->
      let rec groups acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | fr :: rest ->
            let is_data = Bytes.length fr.Sched.fr_data > 0 in
            if is_data && n >= c.cr_budget && cur <> [] then
              groups (List.rev cur :: acc) [ fr ] 1 rest
            else groups acc (fr :: cur) (n + if is_data then 1 else 0) rest
      in
      List.iter (emit_one_aggregate t ~src ~dst) (groups [] [] 0 frames)

(* ------------------------------------------------------------------ *)
(* A reliable vchannel's reactions to its fault plane and sentinels,
   registered by [create]. Crashes are handled here, so sentinel
   transitions on actually-crashed peers change nothing. *)

let on_crash t r node =
  if List.mem node t.all_ranks then begin
    r.reroutes <- r.reroutes + 1;
    (* The crashed node's send-side session state dies with it: cursors,
       unacked logs and credit counters are volatile. Its flows stay
       blocked ([tx_lost]) until a peer handshake restores the cursor
       after restart. Receive journals survive, but the receive-side
       credit counters mirror the wiped ones and restart from zero too
       (leftover pre-crash bytes still buffered at a peer may
       transiently over-grant by at most one budget, which the restart
       window absorbs). *)
    Hashtbl.iter
      (fun (src, _) tx ->
        if src = node then begin
          tx.tx_seq <- 0;
          tx.tx_lost <- true;
          Queue.clear tx.tx_log;
          tx.tx_shipped <- 0;
          tx.tx_granted <- 0
        end)
      t.tx;
    Hashtbl.iter
      (fun (_, origin) rx ->
        if origin = node then begin
          rx.rx_consumed <- 0;
          rx.rx_last_grant <- 0
        end)
      t.rx;
    recompute t r;
    reemit_flows t r;
    t.on_health_change ();
    (* A crashed coordinator needs no phi verdict: the fault plane's
       word is definitive, so stand a candidate at once. *)
    match t.live with
    | Some ({ lv_elect = Some el; _ } as lv) when node = lv.lv_coordinator -> (
        Waiters.wake_all lv.lv_waiters;
        match lowest_live_member lv el with
        | Some candidate ->
            Engine.spawn t.engine ~daemon:true
              ~name:(Printf.sprintf "vchannel.elect.crash.%d" candidate)
              (fun () -> run_election t lv el ~candidate)
        | None -> ())
    | _ -> ()
  end

let on_restart t r node =
  if List.mem node t.all_ranks then begin
    (* The restarted rank's pre-crash vote grant is void — the epoch
       bump announces it to everyone — so it may vote afresh, and any
       ballots it had collected as a candidate are dead. *)
    (match Hashtbl.find_opt r.sentinels node with
    | Some s -> Sentinel.reset_election s
    | None -> ());
    recompute t r;
    (* Crash-epoch session handshake: every live peer holding a delivery
       journal for the restarted origin tells it (over the routed
       network, so gateways forward it like data) where to resume
       numbering. *)
    let epoch = Simnet.Faults.epoch r.faults node in
    Hashtbl.iter
      (fun (me, origin) rx ->
        if origin = node && me <> node && Simnet.Faults.node_up r.faults me
        then
          ship_detached t ~kind:"hs" ~at:me
            { (Generic_tm.header ~origin:me ~final_dst:node ~payload_len:4) with
              seq = rx.rx_next;
              hs = true;
            }
            (int32_payload epoch))
      t.rx;
    (* Flows to peers holding no journal for this node restart at zero
       immediately — nobody will send a handshake. *)
    let fresh = ref false in
    Hashtbl.iter
      (fun (src, dst) tx ->
        if src = node && tx.tx_lost && not (Hashtbl.mem t.rx (dst, node))
        then begin
          tx.tx_lost <- false;
          fresh := true
        end)
      t.tx;
    if !fresh then Waiters.wake_all r.hs_waiters;
    reemit_flows t r;
    t.on_health_change ()
  end

(* Healing restores the wire but not the detectors' opinions: touch
   every sentinel so activity-gated probing re-arms and suspicion drains
   organically via Up probes, then replay the minority's suppressed
   join/drain intents once the coordinator's side holds quorum again. *)
let on_heal t lv el _fabric =
  Hashtbl.iter (fun _ s -> Sentinel.touch s) el.el_rel.sentinels;
  Waiters.wake_all lv.lv_waiters;
  if el.el_pending <> [] then
    Engine.spawn t.engine ~daemon:true ~name:"vchannel.heal.replay" (fun () ->
        if
          topo_wait t lv ~until:(fun () ->
              side_has_quorum t lv el ~viewer:lv.lv_coordinator)
        then replay_pending t lv el)

(* [me]'s sentinel changed its verdict on [peer]. Calling a still-live
   peer Down is a suspicion: routes are recomputed around the suspect
   and in-flight packets re-emitted, before any send times out on it.
   With election off the first observer acts for everyone (the by-any
   view is what routing sees, so later observers change nothing, and
   the first good probe anywhere rehabilitates the peer for everyone);
   with it on, every observer's own view shifts, so each one
   recomputes. *)
let on_verdict t r ~me peer _from to_ =
  let elect =
    match t.live with
    | Some ({ lv_elect = Some el; _ } as lv) -> Some (lv, el)
    | _ -> None
  in
  match to_ with
  | Sentinel.Down when Simnet.Faults.node_up r.faults peer ->
      if not (Hashtbl.mem r.suspected (me, peer)) then begin
        let was = Hashtbl.mem r.susp_count peer in
        Hashtbl.replace r.suspected (me, peer) ();
        Hashtbl.replace r.susp_count peer
          (1 + Option.value ~default:0 (Hashtbl.find_opt r.susp_count peer));
        if Option.is_some elect || not was then begin
          r.reroutes <- r.reroutes + 1;
          recompute t r;
          reemit_flows t r;
          t.on_health_change ()
        end;
        match elect with
        | Some (lv, el) ->
            Waiters.wake_all lv.lv_waiters;
            if peer = lv.lv_coordinator then
              (* The coordinator just went dark for [me]: stand the
                 side's lowest reachable member (not necessarily [me] —
                 the observer may not be the side's natural candidate). *)
              Engine.spawn t.engine ~daemon:true
                ~name:(Printf.sprintf "vchannel.elect.%d" me)
                (fun () ->
                  match elect_candidate t lv ~viewer:me with
                  | Some candidate -> run_election t lv el ~candidate
                  | None -> ())
        | None -> ()
      end
  | Sentinel.Up -> (
      match elect with
      | Some (lv, _) ->
          if Hashtbl.mem r.suspected (me, peer) then begin
            unsuspect r (me, peer);
            recompute t r;
            t.on_health_change ();
            Waiters.wake_all lv.lv_waiters
          end
      | None ->
          if Hashtbl.mem r.susp_count peer then begin
            Hashtbl.iter
              (fun (o, p) () ->
                if p = peer then Hashtbl.remove r.suspected (o, p))
              (Hashtbl.copy r.suspected);
            Hashtbl.remove r.susp_count peer;
            recompute t r;
            t.on_health_change ()
          end)
  | _ -> ()

(* One phi-accrual sentinel per rank, probing its channel neighbours. *)
let start_sentinel t r me =
  let neighbours =
    List.filter (fun p -> p <> me && shares_channel t me p) t.all_ranks
  in
  if neighbours <> [] then begin
    let fabric =
      List.find_map
        (fun c ->
          if List.mem me (Channel.ranks c) then Channel.fabric c else None)
        t.channels
    in
    let s =
      Sentinel.create t.engine r.faults ~me ~peers:neighbours ?fabric ()
    in
    Sentinel.on_transition s (on_verdict t r ~me);
    Sentinel.start s;
    Hashtbl.add r.sentinels me s
  end

let create session ?(mtu = Config.default_vchannel_mtu)
    ?(patience = Config.default_route_patience)
    ?(gateway_overhead = Config.gateway_packet_overhead)
    ?(extra_gateway_copy = false) ?ingress_cap_mb_s ?credits ?gw_pool ?faults
    ?sched ?topology ?coordinator ?(election = false) ?topo_quorum channels =
  if channels = [] then invalid_arg "Vchannel.create: no channels";
  if mtu <= Generic_tm.sub_header_size then
    invalid_arg "Vchannel.create: mtu too small";
  let sched_cfg =
    (* [Fifo] IS the unscheduled path: no scheduler state, no [agg]
       packets, wire format and schedule byte-identical to sched unset. *)
    match sched with
    | None | Some Sched.Fifo -> None
    | Some (Sched.Aggreg { aggr_max; aggr_flush }) ->
        let aggr_max = Option.value aggr_max ~default:mtu in
        let aggr_flush =
          Option.value aggr_flush ~default:Config.default_aggr_flush
        in
        if aggr_max <= Generic_tm.flow_frame_header_size then
          invalid_arg "Vchannel.create: aggr_max too small";
        if aggr_flush <= 0 then
          invalid_arg "Vchannel.create: aggr_flush must be positive";
        Some (aggr_max, aggr_flush)
  in
  (match ingress_cap_mb_s with
  | Some c when c <= 0.0 -> invalid_arg "Vchannel.create: ingress cap <= 0"
  | Some _ | None -> ());
  (match credits with
  | Some n when n < 1 -> invalid_arg "Vchannel.create: credits < 1"
  | Some _ | None -> ());
  (match gw_pool with
  | Some n when n < 1 -> invalid_arg "Vchannel.create: gw_pool < 1"
  | Some _ | None -> ());
  let all_ranks =
    List.concat_map Channel.ranks channels |> List.sort_uniq compare
  in
  (* [all_ranks] is sorted: the coordinator defaults to the lowest rank. *)
  let coord = Option.value coordinator ~default:(List.hd all_ranks) in
  (match topology with
  | None ->
      if Option.is_some coordinator then
        invalid_arg "Vchannel.create: coordinator without a topology version"
  | Some version ->
      if version < 0 then invalid_arg "Vchannel.create: topology version < 0";
      if not (List.mem coord all_ranks) then
        invalid_arg
          (Printf.sprintf
             "Vchannel.create: coordinator %d not part of the virtual channel"
             coord));
  (* Election wants the whole stack under it: a topology to elect over
     and a fault plane (sentinels carry both the suspicion verdicts the
     candidacy triggers ride and the ballot registries). *)
  if not election then begin
    if Option.is_some topo_quorum then
      invalid_arg "Vchannel.create: topo_quorum requires election"
  end
  else begin
    if Option.is_none topology then
      invalid_arg "Vchannel.create: election requires a topology version";
    if Option.is_none faults then
      invalid_arg "Vchannel.create: election requires a fault plane";
    let n = List.length all_ranks in
    match topo_quorum with
    | Some q when q < 1 || q > n ->
        invalid_arg
          (Printf.sprintf "Vchannel.create: topo_quorum %d outside 1..%d" q n)
    | _ -> ()
  end;
  let rel =
    Option.map
      (fun f ->
        {
          faults = f;
          sentinels = Hashtbl.create 8;
          suspected = Hashtbl.create 8;
          susp_count = Hashtbl.create 8;
          route_waiters = Waiters.create ();
          hs_waiters = Waiters.create ();
          ack_waiters = Waiters.create ();
          reroutes = 0;
          reemitted = 0;
          dup_drops = 0;
          handshakes = 0;
        })
      faults
  in
  let live =
    Option.map
      (fun version ->
        {
          lv_coordinator = coord;
          lv_snapshot = Topology.make ~epoch:version ~coordinator:coord all_ranks;
          lv_draining = Hashtbl.create 4;
          lv_joins = 0;
          lv_drains = 0;
          lv_waiters = Waiters.create ();
          lv_elect =
            (match rel with
            | Some r when election ->
                Some
                  {
                    el_rel = r;
                    el_quorum = topo_quorum;
                    el_term = 0;
                    el_elections = 0;
                    el_attempts = 0;
                    el_refusals = 0;
                    el_commits = [];
                    el_last_latency = Time.zero;
                    el_running = false;
                    el_pending = [];
                  }
            | _ -> None);
        })
      topology
  in
  let credit_plane =
    Option.map
      (fun budget ->
        {
          cr_budget = budget;
          (* Grant every half window: frequent enough that a sender with
             a consuming receiver never runs fully dry, cheap enough that
             grants stay a small fraction of the data. *)
          cr_quantum = max 1 (budget / 2);
          cr_grants = 0;
          cr_probes = 0;
          cr_stalls = 0;
        })
      credits
  in
  let pool = Option.value gw_pool ~default:Config.default_gateway_pool in
  let t =
    {
      engine = Session.engine session;
      mtu;
      patience;
      gateway_overhead;
      extra_gateway_copy;
      ingress_cap_mb_s;
      channels;
      all_ranks;
      routes = Hashtbl.create 1; (* computed below: [down] reads [t] *)
      base_hops = Hashtbl.create 64;
      rel;
      sched = None;
      tx = Hashtbl.create 32;
      rx = Hashtbl.create 32;
      endpoints = Hashtbl.create 32;
      gateways = Hashtbl.create 16;
      incoming = Hashtbl.create 16;
      pumps = Hashtbl.create 16;
      send_locks = Hashtbl.create 32;
      credits = credit_plane;
      gw_pool = pool;
      gw_low = max 1 (pool / 2);
      (* The watermark machinery (and its clear-hold timers) runs only
         when the backpressure plane was asked for; a plain vchannel's
         schedule stays byte-identical to the pre-flow-control library. *)
      overload_track = Option.is_some credits || Option.is_some gw_pool;
      overloaded = Hashtbl.create 4;
      overload_events = 0;
      live;
      on_col = (fun ~me:_ ~origin:_ _ -> ());
      on_health_change = (fun () -> ());
      unacked_cap = Option.value credits ~default:Config.default_unacked_window;
    }
  in
  t.routes <- fresh_routes t;
  Hashtbl.iter
    (fun key hops -> Hashtbl.replace t.base_hops key (List.length hops))
    t.routes;
  List.iter
    (fun node ->
      Hashtbl.add t.gateways node
        {
          gw_slots = pp_make ();
          gw_gen = 0;
          gw_packets = 0;
          gw_bytes = 0;
          gw_next_ingress = Time.zero;
        };
      List.iter
        (fun c ->
          if List.mem node (Channel.ranks c) then spawn_dispatcher t ~node c)
        channels)
    all_ranks;
  (match rel with
  | None -> ()
  | Some r ->
      List.iter Channel.relax_checked channels;
      Simnet.Faults.on_crash r.faults (on_crash t r);
      Simnet.Faults.on_restart r.faults (on_restart t r);
      (match live with
      | Some ({ lv_elect = Some el; _ } as lv) ->
          Simnet.Faults.on_heal r.faults (on_heal t lv el)
      | _ -> ());
      List.iter (start_sentinel t r) all_ranks);
  (match sched_cfg with
  | None -> ()
  | Some (aggr_max, aggr_flush) ->
      t.sched <-
        Some
          (Sched.create t.engine ~aggr_max ~aggr_flush
             ~emit:(fun ~src ~dst frames -> emit_frames t ~src ~dst frames)));
  t

(* ------------------------------------------------------------------ *)
(* Emission: the Generic TM's static-copy packetization *)


type out_connection = {
  v : t;
  oc_src : int;
  oc_dst : int;
  oc_flow : int;
  mutable staging : Bytes.t;
      (* sized by the first pack, grown up to the MTU on demand *)
  mutable fill : int;
  mutable first_sent : bool;
  mutable oc_bulk : bool;
      (* rendezvous-class: the message's first frame filled the MTU, so
         the whole message bypasses the aggregation buffer *)
  mutable oc_closed : bool;
}

let begin_packing ?(flow = 0) t ~me ~remote =
  if me = remote then invalid_arg "Vchannel.begin_packing: remote is self";
  check_ranks t "begin_packing" me remote;
  if flow < 0 || flow > 0xffff then
    invalid_arg "Vchannel.begin_packing: flow id out of range (0..65535)";
  (match (flow, t.sched) with
  | 0, _ | _, Some _ -> ()
  | _, None ->
      invalid_arg
        "Vchannel.begin_packing: logical flows need an aggregating scheduler \
         (sched=aggreg)");
  (* A draining rank stays routable (its in-flight flows must finish)
     but accepts no NEW flows — that is what lets its journals drain. A
     departed rank is simply unroutable, caught by the route check
     below like any partition. *)
  (match t.live with
  | Some lv ->
      let refuse r reason =
        raise
          (Partitioned
             (Printf.sprintf "Vchannel.begin_packing: rank %d is %s" r reason))
      in
      if Hashtbl.mem lv.lv_draining me then refuse me "draining"
      else if Hashtbl.mem lv.lv_draining remote then refuse remote "draining"
      else if not (Topology.mem lv.lv_snapshot me) then
        refuse me "not in the current topology epoch"
      else if not (Topology.mem lv.lv_snapshot remote) then
        refuse remote "not in the current topology epoch"
  | None -> ());
  if not (Hashtbl.mem t.routes (me, remote)) then
    raise (unroutable t ~at:me ~dst:remote);
  Mutex.lock (send_lock t ~src:me ~dst:remote ~flow);
  {
    v = t;
    oc_src = me;
    oc_dst = remote;
    oc_flow = flow;
    staging = Bytes.empty;
    fill = 0;
    first_sent = false;
    oc_bulk = false;
    oc_closed = false;
  }

(* The staged packet as a frame the scheduler may keep: a buffer filled
   exactly is handed over whole (the next append allocates afresh),
   anything else is copied out. *)
let take_staged oc =
  if oc.fill = Bytes.length oc.staging then begin
    let full = oc.staging in
    oc.staging <- Bytes.empty;
    full
  end
  else Bytes.sub oc.staging 0 oc.fill

let ship oc ~last =
  let t = oc.v in
  (* On failure, close the connection and release its lock so the error
     surfaces as [Partitioned], not a deadlock. *)
  let fail_with e =
    oc.oc_closed <- true;
    Mutex.unlock (send_lock t ~src:oc.oc_src ~dst:oc.oc_dst ~flow:oc.oc_flow);
    raise e
  in
  (try
     match t.sched with
     | Some sc ->
         (* Scheduled path: the staged frame goes to the scheduler
            instead of straight to the wire. Classification happens on
            the message's first frame — a full-MTU opener marks the
            whole message rendezvous-class (it ships immediately,
            overlapping other flows' buffered small trains); anything
            shorter is a small frame that buffers for aggregation.
            Credits, sequencing and re-emission logging all happen at
            emission, per aggregate, in [emit_frames]. *)
         if (not oc.first_sent) && oc.fill = t.mtu then oc.oc_bulk <- true;
         Sched.submit sc ~src:oc.oc_src ~dst:oc.oc_dst ~bulk:oc.oc_bulk
           {
             Sched.fr_flow = oc.oc_flow;
             fr_first = not oc.first_sent;
             fr_last = last;
             fr_data = take_staged oc;
           }
     | None ->
         (* Credits are charged per data-carrying packet before it is
            numbered: a sender out of credits blocks here — holding the
            flow's message lock, which is what serializes the flow —
            until the receiver's consumption replenishes the window.
            Empty last-packet markers carry no bytes and are free. A
            crash between two packets of this message loses the flow's
            cursor; numbering waits for the peer's handshake, or the
            receiver would discard the tail. *)
         emit_data t
           ~charge:(if oc.fill > 0 then 1 else 0)
           { (Generic_tm.header ~origin:oc.oc_src ~final_dst:oc.oc_dst
                ~payload_len:oc.fill) with
             first = not oc.first_sent;
             last;
           }
           oc.staging
   with e -> fail_with e);
  oc.first_sent <- true;
  oc.fill <- 0

(* Make room for [n] staged bytes, [n] at most the MTU. A message's
   first pack sizes the buffer to what it carries, so a small message
   never allocates a whole MTU; a later pack that does not fit grows it
   geometrically, capped at the MTU. *)
let reserve oc n =
  let cap = Bytes.length oc.staging in
  if n > cap then begin
    let grown = Bytes.create (min oc.v.mtu (max n (2 * cap))) in
    Bytes.blit oc.staging 0 grown 0 oc.fill;
    oc.staging <- grown
  end

(* Append raw bytes to the packet stream, shipping full packets.
   [ahead] more bytes of the same pack follow these [len]. *)
let rec append oc data ~off ~len ~ahead =
  if len > 0 then begin
    let mtu = oc.v.mtu in
    if oc.fill = mtu then ship oc ~last:false;
    reserve oc (min mtu (oc.fill + len + ahead));
    let take = min len (mtu - oc.fill) in
    Bytes.blit data off oc.staging oc.fill take;
    oc.fill <- oc.fill + take;
    append oc data ~off:(off + take) ~len:(len - take) ~ahead
  end

let pack oc ?(s_mode = Iface.Send_cheaper) ?(r_mode = Iface.Receive_cheaper)
    ?off ?len data =
  if oc.oc_closed then invalid_arg "Vchannel.pack: connection closed";
  Engine.sleep Config.pack_overhead;
  let buf = Buf.make ?off ?len data in
  let sub =
    Generic_tm.encode_sub_header ~len:(Buf.length buf) s_mode r_mode
  in
  append oc sub ~off:0 ~len:(Bytes.length sub) ~ahead:(Buf.length buf);
  (* No copy cost is charged here: per §6.1 the Generic TM borrows the
     outgoing protocol TM's buffers, so the single data movement is the
     one the underlying channel's pack already models (PIO write, BIP
     staging, socket copy...). The staging blit below is simulation
     bookkeeping. *)
  append oc buf.Buf.data ~off:buf.Buf.off ~len:buf.Buf.len ~ahead:0

let end_packing oc =
  if oc.oc_closed then invalid_arg "Vchannel.end_packing: connection closed";
  Engine.sleep Config.end_overhead;
  ship oc ~last:true;
  oc.oc_closed <- true;
  Mutex.unlock (send_lock oc.v ~src:oc.oc_src ~dst:oc.oc_dst ~flow:oc.oc_flow)

(* Barrier flush: push every aggregate still buffered at [me] to the
   wire now, instead of waiting for budgets or deadlines — the hook for
   synchronization points (a collective's last message, an engine
   drain). No-op without an aggregating scheduler. *)
let flush t ~me =
  match t.sched with None -> () | Some sc -> Sched.flush_all sc ~src:me

(* ------------------------------------------------------------------ *)
(* Live topology: the public membership verbs *)

let topology t =
  match t.live with Some lv -> Some lv.lv_snapshot | None -> None

let join t ~rank =
  match t.live with
  | None -> invalid_arg "Vchannel.join: no live topology (version= unset)"
  | Some lv ->
      if not (List.mem rank t.all_ranks) then
        invalid_arg
          (Printf.sprintf
             "Vchannel.join: rank %d not part of the virtual channel" rank);
      if Topology.mem lv.lv_snapshot rank then
        invalid_arg
          (Printf.sprintf "Vchannel.join: rank %d is already a member" rank);
      if not (node_up t rank) then
        raise
          (Partitioned (Printf.sprintf "Vchannel.join: rank %d is down" rank));
      let admitted () = Topology.mem lv.lv_snapshot rank in
      (match lv.lv_elect with
      | None ->
          ship_join_req t lv rank;
          if not (topo_wait t lv ~until:admitted) then
            raise
              (Partitioned
                 (Printf.sprintf
                    "Vchannel.join: coordinator %d did not admit rank %d \
                     within patience"
                    lv.lv_coordinator rank))
      | Some el ->
          (* Transparently re-targeted join: if the coordinator does not
             answer, stand a replacement and retry against whoever holds
             the (possibly new) post-election coordinator seat. A joiner
             that still cannot get through is on a minority side — park
             the intent for post-heal replay and surface a typed error. *)
          let attempt () =
            (try
               ship_join_req t lv rank;
               true
             with Partitioned _ | Config.Peer_unreachable _ -> false)
            && topo_wait t lv ~until:admitted
          in
          if not (attempt ()) && not (admitted ()) then begin
            (* The joiner is an outsider: its trust view is empty, so
               stand the lowest live member instead. *)
            (match lowest_live_member lv el with
            | Some candidate -> run_election t lv el ~candidate
            | None -> ());
            if not (attempt ()) && not (admitted ()) then begin
              el.el_pending <- P_join rank :: el.el_pending;
              raise
                (No_quorum
                   (Printf.sprintf
                      "Vchannel.join: no quorum reachable to admit rank %d \
                       (intent parked for post-heal replay)"
                      rank))
            end
          end);
      Topology.epoch lv.lv_snapshot

let drain t ~rank =
  match t.live with
  | None -> invalid_arg "Vchannel.drain: no live topology (version= unset)"
  | Some lv ->
      if not (Topology.mem lv.lv_snapshot rank) then
        invalid_arg
          (Printf.sprintf "Vchannel.drain: rank %d is not a member" rank);
      if rank = lv.lv_coordinator then
        invalid_arg
          (Printf.sprintf "Vchannel.drain: rank %d is the coordinator" rank);
      (* Phase 1 — stop accepting new flows involving this rank. *)
      Hashtbl.replace lv.lv_draining rank ();
      (* Phase 2 — quiesce: cumulative acks must cover every journal
         entry the rank originated or is owed, and its forwarding pools
         must be idle, so nothing in flight dies with its departure. *)
      let quiet () =
        Hashtbl.fold
          (fun (s, d) tx acc ->
            acc && ((s <> rank && d <> rank) || Queue.is_empty tx.tx_log))
          t.tx true
        && (gateway t rank).gw_slots.pp_cur = 0
      in
      let deadline = Time.add (Engine.now t.engine) t.patience in
      while (not (quiet ())) && Time.( < ) (Engine.now t.engine) deadline do
        Engine.sleep (Time.us 50.0)
      done;
      if not (quiet ()) then begin
        Hashtbl.remove lv.lv_draining rank;
        raise
          (Partitioned
             (Printf.sprintf
                "Vchannel.drain: rank %d could not flush its journals within \
                 patience"
                rank))
      end;
      (* Phase 3 — tell the coordinator; it swaps the epoch, forgets the
         rank in every sentinel, and the recomputed routes drop it. *)
      let departed () = not (Topology.mem lv.lv_snapshot rank) in
      (match lv.lv_elect with
      | None ->
          (try ship_drain_req t lv rank
           with Partitioned _ | Config.Peer_unreachable _ ->
             Hashtbl.remove lv.lv_draining rank;
             raise
               (Partitioned
                  (Printf.sprintf "Vchannel.drain: coordinator %d unreachable"
                     lv.lv_coordinator)));
          if not (topo_wait t lv ~until:departed) then begin
            Hashtbl.remove lv.lv_draining rank;
            raise
              (Partitioned
                 (Printf.sprintf
                    "Vchannel.drain: coordinator %d did not confirm the \
                     departure of rank %d within patience"
                    lv.lv_coordinator rank))
          end
      | Some el ->
          let attempt () =
            (try
               ship_drain_req t lv rank;
               true
             with Partitioned _ | Config.Peer_unreachable _ -> false)
            && topo_wait t lv ~until:departed
          in
          if not (attempt ()) && not (departed ()) then begin
            (* A rank on its way out must not stand itself: pick the
               side's lowest member other than the drainer. *)
            (match
               List.filter (fun m -> m <> rank) (side_members t lv ~viewer:rank)
             with
            | candidate :: _ -> run_election t lv el ~candidate
            | [] -> ());
            if
              (rank <> lv.lv_coordinator && not (attempt ()))
              && not (departed ())
            then begin
              (* Minority side: withdraw the drain mark (the rank stays
                 a member until the majority hears about it) and park
                 the intent for the post-heal replay. *)
              Hashtbl.remove lv.lv_draining rank;
              el.el_pending <- P_drain rank :: el.el_pending;
              raise
                (No_quorum
                   (Printf.sprintf
                      "Vchannel.drain: no quorum reachable to retire rank %d \
                       (intent parked for post-heal replay)"
                      rank))
            end
          end)

(* ------------------------------------------------------------------ *)
(* Reception *)

type in_connection = {
  iv : t;
  ic_me : int;
  ic_origin : int;
  ic_flow : int;
  asmb : Assembler.t;
  mutable ic_bytes : int; (* unpacked so far, for the delivery record *)
  mutable ic_closed : bool;
}

(* Open the next message from [origin] on [flow], once it starts. *)
let open_message t ~me ~origin ~flow =
  let ep = endpoint t ~me ~origin ~flow in
  Mailbox.take ep.ep_starts;
  Engine.sleep Config.begin_overhead;
  {
    iv = t;
    ic_me = me;
    ic_origin = origin;
    ic_flow = flow;
    asmb = ep.ep_asm;
    ic_bytes = 0;
    ic_closed = false;
  }

let begin_unpacking_from ?(flow = 0) t ~me ~remote =
  open_message t ~me ~origin:remote ~flow

let begin_unpacking t ~me =
  let origin, flow = Mailbox.take (incoming t ~me) in
  open_message t ~me ~origin ~flow

let remote_rank ic = ic.ic_origin
let remote_flow ic = ic.ic_flow

let unpack ic ?(s_mode = Iface.Send_cheaper) ?(r_mode = Iface.Receive_cheaper)
    ?off ?len data =
  if ic.ic_closed then invalid_arg "Vchannel.unpack: connection closed";
  Engine.sleep Config.unpack_overhead;
  let buf = Buf.make ?off ?len data in
  let sub = Bytes.create Generic_tm.sub_header_size in
  Assembler.read_exact ic.asmb sub ~off:0 ~len:Generic_tm.sub_header_size;
  let len', s', r' = Generic_tm.decode_sub_header sub in
  if len' <> Buf.length buf || s' <> s_mode || r' <> r_mode then
    raise
      (Config.Symmetry_violation
         (Format.asprintf
            "vchannel pack/unpack mismatch from %d: packed (%d, %a, %a) but \
             unpacked (%d, %a, %a)"
            ic.ic_origin len' Iface.pp_send_mode s' Iface.pp_recv_mode r'
            (Buf.length buf) Iface.pp_send_mode s_mode Iface.pp_recv_mode
            r_mode));
  (* The payload bytes were already extracted (and their copy paid) by
     the dispatcher; this read is bookkeeping. *)
  Assembler.read_exact ic.asmb buf.Buf.data ~off:buf.Buf.off ~len:buf.Buf.len;
  ic.ic_bytes <- ic.ic_bytes + buf.Buf.len

let end_unpacking ic =
  if ic.ic_closed then invalid_arg "Vchannel.end_unpacking: connection closed";
  Engine.sleep Config.end_overhead;
  Assembler.finish_message ic.asmb;
  ic.ic_closed <- true;
  Engine.note_delivery ic.iv.engine ~src:ic.ic_origin ~dst:ic.ic_me
    ~bytes:ic.ic_bytes

(* ------------------------------------------------------------------ *)
(* Health and reliability statistics *)

let peer_status t ~src ~dst =
  check_ranks t "peer_status" src dst;
  (* Absence from the current topology epoch outranks everything: a
     departed rank is a typed verdict, not a lookup failure — and not
     [Down], which failover would keep trying to route around. The
     routes already exclude it, so nothing ever reroutes *to* it. *)
  match t.live with
  | Some lv
    when (not (Topology.mem lv.lv_snapshot dst))
         || not (Topology.mem lv.lv_snapshot src) ->
      Iface.Departed
  | _ -> (
  match t.rel with
  | Some r
    when (not (Simnet.Faults.node_up r.faults dst))
         ||
         (* With an election plane suspicion is observer-relative (the
            asker's own verdict); without one any observer's verdict
            stands for everybody — the pre-election global semantics. *)
         (if election t then Hashtbl.mem r.suspected (src, dst)
          else Hashtbl.mem r.susp_count dst) ->
      Iface.Down
  | _ -> (
      if src = dst then Iface.Up
      else
        match Hashtbl.find_opt t.routes (src, dst) with
        | None -> Iface.Down
        | Some hops ->
            let n = List.length hops in
            let base =
              match Hashtbl.find_opt t.base_hops (src, dst) with
              | Some b -> b
              | None -> n
            in
            (* Overload shedding on the current path (destination or any
               relay above its watermark) outranks mere route
               lengthening: after rerouting away from an overloaded
               gateway the flow reports Degraded like any failover. *)
            if
              Hashtbl.mem t.overloaded dst
              || List.exists (fun h -> Hashtbl.mem t.overloaded h.hop_to) hops
            then Iface.Overloaded
            else if n > base then Iface.Degraded (n - base)
            else Iface.Up))

type rel_stats = {
  reroutes : int;
  reemitted : int;
  dup_drops : int;
  handshakes : int;
}

let rel_stats t =
  match t.rel with
  | None -> None
  | Some r ->
      Some
        {
          reroutes = r.reroutes;
          reemitted = r.reemitted;
          dup_drops = r.dup_drops;
          handshakes = r.handshakes;
        }

type flow_stat = {
  flow_src : int;
  flow_dst : int;
  sent : int;
  unacked : int;
  delivered : int;
}

(* Every pair either end of which holds reliability state. *)
let flow_stats t =
  match t.rel with
  | None -> []
  | Some _ ->
      Hashtbl.fold (fun (me, o) _ acc -> (o, me) :: acc) t.rx
        (Hashtbl.fold (fun key _ acc -> key :: acc) t.tx [])
      |> List.sort_uniq compare
      |> List.map (fun (s, d) ->
             let sent, unacked =
               match Hashtbl.find_opt t.tx (s, d) with
               | Some tx -> (tx.tx_seq, Queue.length tx.tx_log)
               | None -> (0, 0)
             in
             let delivered =
               match Hashtbl.find_opt t.rx (d, s) with
               | Some rx -> rx.rx_next
               | None -> 0
             in
             { flow_src = s; flow_dst = d; sent; unacked; delivered })

type credit_stats = {
  credit_budget : int;
  grants : int;
  probes : int;
  stalls : int;
}

let credit_stats t =
  match t.credits with
  | None -> None
  | Some c ->
      Some
        {
          credit_budget = c.cr_budget;
          grants = c.cr_grants;
          probes = c.cr_probes;
          stalls = c.cr_stalls;
        }

let sched_stats t =
  match t.sched with None -> None | Some sc -> Some (Sched.stats sc)

let overloaded t =
  Hashtbl.fold (fun node () acc -> node :: acc) t.overloaded []
  |> List.sort compare

let overload_events t = t.overload_events

type queue_stat = {
  q_point : string;
  q_node : int;
  q_peer : int;
  q_peak : int;
  q_bound : int option;
}

(* Every instrumented buffering point that has held something, with
   its observed peak and, when the backpressure plane bounds it, the
   configured bound. Assembler and unacked-log peaks are plain counter
   updates, tracked whenever their plane runs; gateway pool peaks only
   when [?credits] or [?gw_pool] armed the watermark machinery. *)
let queue_stats t =
  let rows = ref [] in
  let row q_point q_node q_peer q_peak q_bound =
    if q_peak > 0 then
      rows := { q_point; q_node; q_peer; q_peak; q_bound } :: !rows
  in
  let asm_bound =
    match t.credits with Some c -> Some (c.cr_budget * t.mtu) | None -> None
  in
  Hashtbl.iter
    (fun (me, origin) rx ->
      row "assembler_bytes" me origin rx.rx_asm.pp_peak asm_bound)
    t.rx;
  Hashtbl.iter
    (fun node gw ->
      (* one pool per outgoing link *)
      let pumps =
        Hashtbl.fold
          (fun (n, _, _) _ k -> if n = node then k + 1 else k)
          t.pumps 0
      in
      row "gateway_pool_slots" node (-1) gw.gw_slots.pp_peak
        (Some (t.gw_pool * pumps)))
    t.gateways;
  Hashtbl.iter
    (fun (src, dst) tx ->
      row "unacked_packets" src dst tx.tx_log_peak (Some t.unacked_cap))
    t.tx;
  List.sort compare !rows

type topology_stats = {
  topo_epoch : int;
  topo_members : int list;
  topo_coordinator : int;
  topo_joins : int;
  topo_drains : int;
}

let topology_stats t =
  match t.live with
  | None -> None
  | Some lv ->
      Some
        {
          topo_epoch = Topology.epoch lv.lv_snapshot;
          topo_members = Topology.ranks lv.lv_snapshot;
          topo_coordinator = lv.lv_coordinator;
          topo_joins = lv.lv_joins;
          topo_drains = lv.lv_drains;
        }

let coordinator t =
  match t.live with Some lv -> Some lv.lv_coordinator | None -> None

(* The collectives' fail-fast oracle: can [viewer] currently see a
   quorum of members on its own side of whatever cuts exist? Always
   true without an election plane — quorum is then not a concept the
   channel tracks. *)
let has_quorum t ~viewer =
  match t.live with
  | Some ({ lv_elect = Some el; _ } as lv) ->
      Simnet.Faults.node_up el.el_rel.faults viewer
      && side_has_quorum t lv el ~viewer
  | _ -> true

type election_stats = {
  quorum : int;
  elections : int;  (** committed coordinator changes *)
  attempts : int;  (** candidacies started *)
  refusals : int;  (** quorum refusals: failed candidacies + vetoed bumps *)
  commits : (int * int) list;  (** (epoch, coordinator), oldest first *)
  pending : int;  (** parked minority intents awaiting a heal *)
  last_latency_us : float;
}

let election_stats t =
  match t.live with
  | Some ({ lv_elect = Some el; _ } as lv) ->
      Some
        {
          quorum = quorum_needed lv el;
          elections = el.el_elections;
          attempts = el.el_attempts;
          refusals = el.el_refusals;
          commits = List.rev el.el_commits;
          pending = List.length el.el_pending;
          last_latency_us = Time.to_us el.el_last_latency;
        }
  | _ -> None

let sentinel t ~rank =
  match t.rel with
  | None -> None
  | Some r -> Hashtbl.find_opt r.sentinels rank

let suspicion_timeline t =
  match t.rel with
  | None -> []
  | Some r ->
      Hashtbl.fold
        (fun me s acc ->
          List.map (fun ev -> (me, ev)) (Sentinel.timeline s) @ acc)
        r.sentinels []
      |> List.sort (fun (_, a) (_, b) ->
             compare a.Sentinel.ev_at b.Sentinel.ev_at)

let engine t = t.engine

(* The Collectives layer's liveness oracle: a rank participates in a
   collective iff it is part of the vchannel, a member of the current
   topology epoch (and not mid-drain), actually up, and not under
   suspicion — the same predicate routing uses, so a tree built over
   live ranks is also routable. *)
let rank_alive t rank =
  List.mem rank t.all_ranks
  && (match t.live with
     | Some lv ->
         Topology.mem lv.lv_snapshot rank
         && not (Hashtbl.mem lv.lv_draining rank)
     | None -> true)
  &&
  match t.rel with
  | Some r -> (
      Simnet.Faults.node_up r.faults rank
      &&
      match t.live with
      | Some ({ lv_elect = Some _; _ } as lv) ->
          (* Election on: alive means "in the coordinator's trust
             component" — the committed side's view, so majority trees
             exclude the whole minority, not just directly-suspected
             neighbours. Route presence is the trust-path closure. *)
          rank = lv.lv_coordinator
          || Hashtbl.mem t.routes (lv.lv_coordinator, rank)
      | _ -> not (Hashtbl.mem r.susp_count rank))
  | None -> true

let rank_overloaded t rank = Hashtbl.mem t.overloaded rank
