module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox
module Mutex = Marcel.Mutex
module Condition = Marcel.Condition
module Semaphore = Marcel.Semaphore

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

exception Partitioned of string

(* Peak-tracking occupancy counter for one buffering point. *)
type probe_point = { mutable pp_cur : int; mutable pp_peak : int }

let pp_make () = { pp_cur = 0; pp_peak = 0 }

let pp_add p n =
  p.pp_cur <- p.pp_cur + n;
  if p.pp_cur > p.pp_peak then p.pp_peak <- p.pp_cur

let pp_sub p n = p.pp_cur <- p.pp_cur - n

(* State per ordered rank pair, indexed [a].(b). Row [a] is allocated
   by its first entry, so a world pays only for the ranks that hold
   pair state. *)
module Pairs = struct
  type 'a t = 'a option array array

  let create n : 'a t = Array.make n [||]

  let find (m : 'a t) a b =
    match m.(a) with [||] -> None | row -> row.(b)

  (* Store [v] at (a, b) and return it. *)
  let add (m : 'a t) a b v =
    if Array.length m.(a) = 0 then m.(a) <- Array.make (Array.length m) None;
    m.(a).(b) <- Some v;
    v

  (* The entry at (a, b), made by [mk] on first use. *)
  let get m a b mk =
    match find m a b with Some v -> v | None -> add m a b (mk ())

  (* The entries of row [a], in ascending [b] order; every entry, in
     ascending (a, b) order. *)
  let iter_row f (m : 'a t) a = Array.iteri (fun b -> Option.iter (f b)) m.(a)
  let iter f (m : 'a t) = Array.iteri (fun a _ -> iter_row (f a) m a) m

  (* The entries (a, b) of column [b], in ascending [a] order. *)
  let iter_col f (m : 'a t) b =
    Array.iteri (fun a _ -> Option.iter (f a) (find m a b)) m
end

(* Send-side state of one (src, dst) pair, made on the pair's first
   emission. The reliability fields are used only with
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
   buffered in the pair's assemblers. Crash handshakes go to every pair
   that holds a record, so a record is made only by the pair's first
   delivery or grant, never by a receiver waiting for a message. *)
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

(* What the membership plane tells the core. [create] installs the
   fixed topology of the paper's §6 (every rank a member, nobody
   draining, suspicion global); {!Membership} replaces it. *)
type view = {
  member : int -> bool;
  draining : int -> bool;
  relative : bool;
  trusted : int -> bool;
  has_quorum : int -> bool;
  on_top : me:int -> Bytes.t -> unit;
  on_crash : int -> unit;
  on_verdict : me:int -> int -> Sentinel.state -> unit;
}

(* Per-rank and per-pair state is held in arrays indexed by rank, sized
   by the highest rank of [all_ranks]; that set is fixed at [create]
   (a membership join only re-admits ranks already in it). Every walk
   over this state visits ranks in ascending order, and pairs in
   ascending (first rank, second rank) order: crash, restart,
   re-emission, quiescence, suspicion, the sentinel hooks, route
   comparison and the stats views. Re-emission daemons and crash
   handshakes spawn in that order, so it is part of the simulated
   schedule. *)
type t = {
  engine : Engine.t;
  mtu : int;
  patience : Time.span;
  gateway_overhead : Time.span;
  extra_gateway_copy : bool;
  ingress_cap_mb_s : float option;
  all_ranks : int list; (* ascending *)
  routing : Channel.t Routing.t;
  rel : rel option;
  mutable sched : Sched.t option; (* aggregating scheduler (sched=aggreg) *)
  tx : tx Pairs.t; (* [src].(dst) *)
  rx : rx Pairs.t; (* [me].(origin) *)
  endpoints : (int, endpoint) Hashtbl.t Pairs.t; (* [me].(origin), by flow *)
  gateways : gateway array;
  incoming : (int * int) Mailbox.t array;
      (* any-source: (origin, flow) queue *)
  pumps : (int, pump) Hashtbl.t Pairs.t;
      (* [node].(out dst), by out channel id *)
  send_locks : (int, Mutex.t) Hashtbl.t Pairs.t;
      (* [src].(dst), by flow: message serialization *)
  credits : credits option;
  gw_pool : int;
      (* forwarding buffers per pump (2 = paper's dual buffer); a gateway
         whose busy slots reach it reports Overloaded *)
  gw_low : int; (* busy slots at which the report clears (hysteresis) *)
  overload_track : bool; (* watermark machinery on (credits or gw_pool set) *)
  overloaded : bool array; (* gateways above their watermark *)
  mutable overload_events : int; (* Overloaded transitions (rising edges) *)
  mutable view : view;
  mutable on_col : me:int -> origin:int -> Bytes.t -> unit;
      (* collective-control packets, delivered to the Collectives layer *)
  mutable on_health_change : unit -> unit;
      (* any liveness/overload/epoch transition; Collectives repair hook *)
  unacked_cap : int; (* bound on the origin re-emission log, in packets *)
}

(* The entry for [key] in a pair slot's sparse table (keyed by flow or
   channel id), made by [mk] on first use. *)
let slot_entry m a b key mk =
  let tbl = Pairs.get m a b (fun () -> Hashtbl.create 1) in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add tbl key v;
      v

let endpoint t ~me ~origin ~flow =
  slot_entry t.endpoints me origin flow (fun () ->
      { ep_starts = Mailbox.create (); ep_asm = Assembler.create () })

let tx_state t ~src ~dst =
  Pairs.get t.tx src dst (fun () ->
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

let send_lock t ~src ~dst ~flow =
  slot_entry t.send_locks src dst flow Mutex.create

let ranks t = t.all_ranks
let mem t r = Routing.mem t.routing r

let routed t a b = Routing.routed t.routing a b

let not_in_channel t op ranks =
  invalid_arg
    (Printf.sprintf "Vchannel.%s: %s not part of the virtual channel (ranks %s)"
       op ranks
       (String.concat "," (List.map string_of_int t.all_ranks)))

let check_rank t op r =
  if not (mem t r) then not_in_channel t op (Printf.sprintf "rank %d" r)

let check_ranks t op src dst =
  if not (mem t src && mem t dst) then
    not_in_channel t op (Printf.sprintf "rank %d or %d" src dst)

let route_via_op t op ~src ~dst =
  check_ranks t op src dst;
  match Routing.via t.routing ~src ~dst with
  | [] when src <> dst ->
      raise
        (Partitioned
           (Printf.sprintf "Vchannel.%s: no route from %d to %d" op src dst))
  | via -> via

let route_length t ~src ~dst =
  List.length (route_via_op t "route_length" ~src ~dst)

let route_via t ~src ~dst = route_via_op t "route_via" ~src ~dst

let forwarded t =
  List.filter_map
    (fun node ->
      let gw = t.gateways.(node) in
      if gw.gw_packets > 0 then Some (node, gw.gw_packets, gw.gw_bytes)
      else None)
    t.all_ranks

(* No route from [at] to [dst] on the send path: a partition on a
   reliable vchannel, whose routes come and go with faults; a usage
   error on a fault-free one. *)
let unroutable t ~at ~dst =
  let msg = Printf.sprintf "Vchannel: no route from %d to %d" at dst in
  match t.rel with Some _ -> Partitioned msg | None -> Invalid_argument msg

let next_hop t ~at ~dst =
  try Routing.next_hop t.routing ~src:at ~dst
  with Not_found -> raise (unroutable t ~at ~dst)

let touch_sentinel r ~rank = Option.iter Sentinel.touch r.sentinels.(rank)

(* Whether [n] is up; without a fault plane every node always is. *)
let node_up t n =
  match t.rel with Some r -> Simnet.Faults.node_up r.faults n | None -> true

(* Park on [w] until [until ()] holds or the vchannel's patience runs
   out; returns whether [until ()] was reached. *)
let wait_patiently t w ~name ~until =
  Waiters.await w t.engine ~patience:t.patience ~name ~until

(* Wait out a route hole from [at] to [dst] until a route recomputation
   restores a path. A node restarting with a new epoch is unroutable for
   the length of its restart window; waiting it out here is what lets
   in-flight flows survive a crash-restart instead of dying on the
   transient hole. *)
let wait_route t r ~at ~dst =
  let routed () = routed t at dst in
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
    at <> header.Generic_tm.origin
    || hop.Routing.hop_to <> header.Generic_tm.final_dst
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
  let origin = header.Generic_tm.origin in
  (match Pairs.find t.tx header.Generic_tm.final_dst origin with
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
  match Pairs.find t.rx me origin with
  | Some rx -> rx
  | None ->
      let rec rx =
        {
          rx_next = 0;
          rx_consumed = 0;
          rx_last_grant = 0;
          rx_asm = pp_make ();
          rx_pop = (fun n -> note_consumed t rx ~me ~origin n);
        }
      in
      Pairs.add t.rx me origin rx

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

let sentinels_learn t r rank =
  unsuspect_all r rank;
  iter_sentinels r (fun me s ->
      if me <> rank && Routing.same_channel t.routing me rank then
        Sentinel.learn s rank)

(* Dropping a departed rank from every detector is what keeps a
   long-lived elastic session's phi-accrual state from growing without
   bound — and what stops a sentinel from suspecting a rank that left
   gracefully. Sentinel.forget also voids the rank's recorded ballots,
   so a drained rank stops counting toward any quorum. *)
let sentinels_forget r rank =
  unsuspect_all r rank;
  iter_sentinels r (fun me s -> if me <> rank then Sentinel.forget s rank)

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
  Pairs.iter
    (fun src dst { tx_log = q; _ } ->
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

let fixed_view =
  {
    member = (fun _ -> true);
    draining = (fun _ -> false);
    relative = false;
    trusted = (fun _ -> true);
    has_quorum = (fun _ -> true);
    on_top = (fun ~me:_ _ -> ());
    on_crash = ignore;
    on_verdict = (fun ~me:_ _ _ -> ());
  }

(* Whether [viewer] distrusts the live rank [n]: with relative suspicion
   (quorum elections) its own sentinel's verdict, so under a symmetric
   partition each side keeps full routes within itself instead of
   everyone going dark because somebody somewhere suspects them;
   otherwise any observer's verdict, standing for everybody. *)
let suspects (view : view) r ~viewer n =
  if view.relative then r.suspected.(viewer).(n) else r.susp_count.(n) > 0

(* Whether the hop [viewer -> n] is unusable. Non-members of the
   current epoch are excluded from routing exactly like crashed nodes:
   never a relay, never an endpoint. Under the fixed view every
   physical rank is a member and the predicate reduces to the
   crash/suspicion test. *)
let down (view : view) rel =
  match rel with
  | None -> fun _viewer n -> not (view.member n)
  | Some r ->
      fun viewer n ->
        (not (view.member n))
        || (not (Simnet.Faults.node_up r.faults n))
        || suspects view r ~viewer n

(* Recompute a reliable vchannel's routes, preferring those around
   Overloaded gateways, and wake the senders waiting out a route hole. *)
let recompute t r =
  Routing.recompute t.routing ~down:(down t.view t.rel)
    ~overloaded:t.overloaded;
  Waiters.wake_all r.route_waiters

(* An epoch swap or an Overloaded edge on a reliable vchannel: recompute
   the routes, then re-emit ONLY the flows whose route actually changed
   (switching routes mid-flow can strand packets the destination's
   sequence check discarded as overtakers), under each flow's emission
   lock. An edge with no alternate gateway changes no route and
   re-emits nothing — re-emitting into an already-overloaded path would
   feed the congestion it is reporting. *)
let swap_routes t r =
  let before = Routing.routes t.routing in
  recompute t r;
  reemit_flows t r ~only:(Routing.changed t.routing ~before)

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
  if mem t rank then Routing.neighbours t.routing rank else []

(* ------------------------------------------------------------------ *)
(* Membership hooks. The {!Membership} layer installs its view here and
   drives epoch swaps; its [top] packets ride the forwarding path like
   [col] ones, and their payloads go to the view's [on_top]. *)

let view t = t.view
let set_view t v = t.view <- v
let faults t = Option.map (fun r -> r.faults) t.rel
let patience t = t.patience
let reachable t ~src ~dst = mem t src && mem t dst && routed t src dst

(* An epoch swap the view has already published: every sentinel learns
   the joined ranks and forgets the departed ones, then the routes are
   recomputed — on a reliable vchannel, re-emitting only the flows
   whose route changed. *)
let swap_epoch t { Topology.joined; departed } =
  List.iter (fun rank -> t.overloaded.(rank) <- false) departed;
  (match t.rel with
  | Some r ->
      List.iter (sentinels_learn t r) joined;
      List.iter (sentinels_forget r) departed;
      swap_routes t r
  | None -> Routing.recompute t.routing ~down:(down t.view t.rel));
  t.on_health_change ()

(* Whether [rank] holds nothing in flight: cumulative acks cover every
   re-emission-log entry it originated or is owed, and its forwarding
   pools are idle. *)
let quiescent t rank =
  check_rank t "quiescent" rank;
  let idle = ref (t.gateways.(rank).gw_slots.pp_cur = 0) in
  let check _ tx = if not (Queue.is_empty tx.tx_log) then idle := false in
  Pairs.iter_row check t.tx rank;
  Pairs.iter_col check t.tx rank;
  !idle

let top_header ~src ~dst payload =
  { (Generic_tm.header ~origin:src ~final_dst:dst
       ~payload_len:(Bytes.length payload)) with
    top = true;
  }

let send_top t ~src ~dst payload =
  check_ranks t "send_top" src dst;
  ship_detached t ~kind:"top" ~at:src (top_header ~src ~dst payload) payload

(* A physical first hop ignores membership and suspicion: it is how a
   rank outside the current epoch reaches the member network. From the
   next node on, the packet rides the routes like any transit packet. *)
let ship_top ?(physical = false) t ~src ~dst payload =
  check_ranks t "ship_top" src dst;
  let header = top_header ~src ~dst payload in
  let payload_len = Bytes.length payload in
  if not physical then ship_packet t ~at:src ~header ~payload ~payload_len
  else
    let down _ n = not (node_up t n) in
    match Routing.first_hop t.routing ~down ~src ~dst with
    | Some hop -> (
        try send_hop ~at:src hop ~header ~payload ~payload_len
        with Config.Peer_unreachable msg -> raise (Partitioned msg))
    | None ->
        raise
          (Partitioned
             (Printf.sprintf "Vchannel.ship_top: no physical path from %d to %d"
                src dst))

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
      Mailbox.put t.incoming.(me) (origin, flow)
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
      iter_sentinels r (fun me s ->
          if me <> node then Sentinel.set_overloaded s ~peer:node flag)

let set_overload t node flag =
  if flag then begin
    if not t.overloaded.(node) then begin
      t.overloaded.(node) <- true;
      t.overload_events <- t.overload_events + 1;
      inform_sentinels t node true;
      Option.iter (swap_routes t) t.rel;
      t.on_health_change ()
    end
  end
  else if t.overloaded.(node) then begin
    t.overloaded.(node) <- false;
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
    let gw = t.gateways.(node) in
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
    let gw = t.gateways.(node) in
    pp_sub gw.gw_slots 1;
    if gw.gw_slots.pp_cur <= t.gw_low && t.overloaded.(node) then
      maybe_clear_overload t node gw
  end;
  Semaphore.release p.pump_buffers

let rec pump_for t ~node (hop : Channel.t Routing.hop) =
  slot_entry t.pumps node hop.hop_to (Channel.id hop.hop_channel) (fun () ->
      let p =
        {
          pump_q = Mailbox.create ();
          pump_buffers = Semaphore.create t.gw_pool;
        }
      in
      spawn_forwarder t ~node p;
      p)

and spawn_forwarder t ~node p =
  let gw = t.gateways.(node) in
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
            | _ when top -> t.view.on_top ~me:node payload
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
                    let gw = t.gateways.(node) in
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
      | Some r when not (routed t src dst) ->
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
    if not (routed t src dst) then wait_route t r ~at:src ~dst;
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
  if mem t node then begin
    r.reroutes <- r.reroutes + 1;
    (* The crashed node's send-side session state dies with it: cursors,
       unacked logs and credit counters are volatile. Its flows stay
       blocked ([tx_lost]) until a peer handshake restores the cursor
       after restart. Receive journals survive, but the receive-side
       credit counters mirror the wiped ones and restart from zero too
       (leftover pre-crash bytes still buffered at a peer may
       transiently over-grant by at most one budget, which the restart
       window absorbs). *)
    Pairs.iter_row
      (fun _ tx ->
        tx.tx_seq <- 0;
        tx.tx_lost <- true;
        Queue.clear tx.tx_log;
        tx.tx_shipped <- 0;
        tx.tx_granted <- 0)
      t.tx node;
    Pairs.iter_col
      (fun _ rx ->
        rx.rx_consumed <- 0;
        rx.rx_last_grant <- 0)
      t.rx node;
    recompute t r;
    reemit_flows t r;
    t.on_health_change ();
    t.view.on_crash node
  end

let on_restart t r node =
  if mem t node then begin
    (* The restarted rank's pre-crash vote grant is void — the epoch
       bump announces it to everyone — so it may vote afresh, and any
       ballots it had collected as a candidate are dead. *)
    Option.iter Sentinel.reset_election r.sentinels.(node);
    recompute t r;
    (* Crash-epoch session handshake: every live peer holding a delivery
       journal for the restarted origin tells it (over the routed
       network, so gateways forward it like data) where to resume
       numbering. *)
    let epoch = Simnet.Faults.epoch r.faults node in
    Pairs.iter_col
      (fun me rx ->
        if me <> node && Simnet.Faults.node_up r.faults me then
          ship_detached t ~kind:"hs" ~at:me
            { (Generic_tm.header ~origin:me ~final_dst:node ~payload_len:4) with
              seq = rx.rx_next;
              hs = true;
            }
            (int32_payload epoch))
      t.rx node;
    (* Flows to peers holding no journal for this node restart at zero
       immediately — nobody will send a handshake. *)
    let fresh = ref false in
    Pairs.iter_row
      (fun dst tx ->
        if tx.tx_lost && Option.is_none (Pairs.find t.rx dst node) then begin
          tx.tx_lost <- false;
          fresh := true
        end)
      t.tx node;
    if !fresh then Waiters.wake_all r.hs_waiters;
    reemit_flows t r;
    t.on_health_change ()
  end

(* [me]'s sentinel changed its verdict on [peer]. Calling a still-live
   peer Down is a suspicion: routes are recomputed around the suspect
   and in-flight packets re-emitted, before any send times out on it.
   With global suspicion the first observer acts for everyone (the
   by-any view is what routing sees, so later observers change
   nothing, and the first good probe anywhere rehabilitates the peer
   for everyone); with relative suspicion every observer's own view
   shifts, so each one recomputes. The membership view hears of every
   verdict the core acted on. *)
let on_verdict t r ~me peer _from to_ =
  match to_ with
  | Sentinel.Down when Simnet.Faults.node_up r.faults peer ->
      if not r.suspected.(me).(peer) then begin
        let was = r.susp_count.(peer) > 0 in
        r.suspected.(me).(peer) <- true;
        r.susp_count.(peer) <- r.susp_count.(peer) + 1;
        if t.view.relative || not was then begin
          r.reroutes <- r.reroutes + 1;
          recompute t r;
          reemit_flows t r;
          t.on_health_change ()
        end;
        t.view.on_verdict ~me peer to_
      end
  | Sentinel.Up when t.view.relative ->
      if r.suspected.(me).(peer) then begin
        unsuspect r me peer;
        recompute t r;
        t.on_health_change ();
        t.view.on_verdict ~me peer to_
      end
  | Sentinel.Up ->
      if r.susp_count.(peer) > 0 then begin
        Array.iter (fun row -> row.(peer) <- false) r.suspected;
        r.susp_count.(peer) <- 0;
        recompute t r;
        t.on_health_change ()
      end
  | _ -> ()

(* One phi-accrual sentinel per rank, probing its channel neighbours. *)
let start_sentinel t r me =
  let neighbours = List.sort compare (Routing.neighbours t.routing me) in
  if neighbours <> [] then begin
    let fabric =
      List.find_map Channel.fabric (Routing.channels_of t.routing me)
    in
    let s =
      Sentinel.create t.engine r.faults ~me ~peers:neighbours ?fabric ()
    in
    Sentinel.on_transition s (on_verdict t r ~me);
    Sentinel.start s;
    r.sentinels.(me) <- Some s
  end

let create session ?(mtu = Config.default_vchannel_mtu)
    ?(patience = Config.default_route_patience)
    ?(gateway_overhead = Config.gateway_packet_overhead)
    ?(extra_gateway_copy = false) ?ingress_cap_mb_s ?credits ?gw_pool ?faults
    ?sched channels =
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
  (* [all_ranks] is sorted: the highest rank sizes the rank-indexed
     state. *)
  let n = 1 + List.fold_left max 0 all_ranks in
  let rel =
    Option.map
      (fun f ->
        {
          faults = f;
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
        })
      faults
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
  let routing =
    Routing.create ~n
      (List.map (fun c -> (c, Channel.ranks c)) channels)
      ~down:(down fixed_view rel)
  in
  let t =
    {
      engine = Session.engine session;
      mtu;
      patience;
      gateway_overhead;
      extra_gateway_copy;
      ingress_cap_mb_s;
      all_ranks;
      routing;
      rel;
      sched = None;
      tx = Pairs.create n;
      rx = Pairs.create n;
      endpoints = Pairs.create n;
      gateways =
        Array.init n (fun _ ->
            {
              gw_slots = pp_make ();
              gw_gen = 0;
              gw_packets = 0;
              gw_bytes = 0;
              gw_next_ingress = Time.zero;
            });
      incoming = Array.init n (fun _ -> Mailbox.create ());
      pumps = Pairs.create n;
      send_locks = Pairs.create n;
      credits = credit_plane;
      gw_pool = pool;
      gw_low = max 1 (pool / 2);
      (* The watermark machinery (and its clear-hold timers) runs only
         when the backpressure plane was asked for; a plain vchannel's
         schedule stays byte-identical to the pre-flow-control library. *)
      overload_track = Option.is_some credits || Option.is_some gw_pool;
      overloaded = Array.make n false;
      overload_events = 0;
      view = fixed_view;
      on_col = (fun ~me:_ ~origin:_ _ -> ());
      on_health_change = (fun () -> ());
      unacked_cap = Option.value credits ~default:Config.default_unacked_window;
    }
  in
  List.iter
    (fun node ->
      List.iter (spawn_dispatcher t ~node) (Routing.channels_of routing node))
    all_ranks;
  (match rel with
  | None -> ()
  | Some r ->
      List.iter Channel.relax_checked channels;
      Simnet.Faults.on_crash r.faults (on_crash t r);
      Simnet.Faults.on_restart r.faults (on_restart t r);
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
  oc_lock : Mutex.t; (* the message lock, held until [end_packing] *)
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
     rank outside the current epoch is refused the same way. *)
  let refuse r reason =
    raise
      (Partitioned
         (Printf.sprintf "Vchannel.begin_packing: rank %d is %s" r reason))
  in
  let v = t.view in
  if v.draining me then refuse me "draining"
  else if v.draining remote then refuse remote "draining"
  else if not (v.member me) then refuse me "not in the current topology epoch"
  else if not (v.member remote) then
    refuse remote "not in the current topology epoch";
  if not (routed t me remote) then raise (unroutable t ~at:me ~dst:remote);
  let lock = send_lock t ~src:me ~dst:remote ~flow in
  Mutex.lock lock;
  {
    v = t;
    oc_lock = lock;
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
    Mutex.unlock oc.oc_lock;
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
  Mutex.unlock oc.oc_lock

(* Barrier flush: push every aggregate still buffered at [me] to the
   wire now, instead of waiting for budgets or deadlines — the hook for
   synchronization points (a collective's last message, an engine
   drain). No-op without an aggregating scheduler. *)
let flush t ~me =
  match t.sched with None -> () | Some sc -> Sched.flush_all sc ~src:me

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
  check_ranks t "begin_unpacking_from" me remote;
  open_message t ~me ~origin:remote ~flow

let begin_unpacking t ~me =
  check_rank t "begin_unpacking" me;
  let origin, flow = Mailbox.take t.incoming.(me) in
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
  if not (t.view.member dst && t.view.member src) then Iface.Departed
  else
  match t.rel with
  | Some r
    when (not (Simnet.Faults.node_up r.faults dst))
         || suspects t.view r ~viewer:src dst ->
      Iface.Down
  | _ -> (
      if src = dst then Iface.Up
      else
        match Routing.via t.routing ~src ~dst with
        | [] -> Iface.Down
        | via ->
            let n = List.length via in
            let base = Routing.base_length t.routing ~src ~dst in
            (* Overload shedding on the current path (destination or any
               relay above its watermark) outranks mere route
               lengthening: after rerouting away from an overloaded
               gateway the flow reports Degraded like any failover. *)
            if
              t.overloaded.(dst)
              || List.exists (fun h -> t.overloaded.(h)) via
            then Iface.Overloaded
            else if base > 0 && n > base then Iface.Degraded (n - base)
            else Iface.Up)

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
      let count f = Option.fold ~none:0 ~some:f in
      List.concat_map
        (fun s ->
          List.filter_map
            (fun d ->
              match (Pairs.find t.tx s d, Pairs.find t.rx d s) with
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
            t.all_ranks)
        t.all_ranks

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

let overloaded t = List.filter (fun node -> t.overloaded.(node)) t.all_ranks

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
   configured bound, by point name and then ascending ranks. Assembler
   and unacked-log peaks are plain counter updates, tracked whenever
   their plane runs; gateway pool peaks only when [?credits] or
   [?gw_pool] armed the watermark machinery. *)
let queue_stats t =
  let rows = ref [] in
  let row q_point q_node q_peer q_peak q_bound =
    if q_peak > 0 then
      rows := { q_point; q_node; q_peer; q_peak; q_bound } :: !rows
  in
  let asm_bound =
    match t.credits with Some c -> Some (c.cr_budget * t.mtu) | None -> None
  in
  Pairs.iter
    (fun me origin rx ->
      row "assembler_bytes" me origin rx.rx_asm.pp_peak asm_bound)
    t.rx;
  Array.iteri
    (fun node gw ->
      (* one pool per outgoing link *)
      let pumps = ref 0 in
      Pairs.iter_row
        (fun _ p -> pumps := !pumps + Hashtbl.length p)
        t.pumps node;
      row "gateway_pool_slots" node (-1) gw.gw_slots.pp_peak
        (Some (t.gw_pool * !pumps)))
    t.gateways;
  Pairs.iter
    (fun src dst tx ->
      row "unacked_packets" src dst tx.tx_log_peak (Some t.unacked_cap))
    t.tx;
  List.rev !rows

(* The collectives' fail-fast oracle, answered by the membership
   view: always true under the fixed view, where quorum is not a
   concept the channel tracks. *)
let has_quorum t ~viewer = t.view.has_quorum viewer

let sentinel t ~rank =
  match t.rel with
  | None -> None
  | Some r -> if mem t rank then r.sentinels.(rank) else None

let suspicion_timeline t =
  match t.rel with
  | None -> []
  | Some r ->
      let events = ref [] in
      iter_sentinels r (fun me s ->
          let mine = List.map (fun ev -> (me, ev)) (Sentinel.timeline s) in
          events := mine :: !events);
      List.concat (List.rev !events)
      |> List.stable_sort (fun (_, a) (_, b) ->
             compare a.Sentinel.ev_at b.Sentinel.ev_at)

let engine t = t.engine

(* The Collectives layer's liveness oracle: a rank participates in a
   collective iff it is part of the vchannel, a member of the current
   topology epoch (and not mid-drain), actually up, and not under
   suspicion — the same predicate routing uses, so a tree built over
   live ranks is also routable. Under relative suspicion the view says
   who is trusted. *)
let rank_alive t rank =
  mem t rank && t.view.member rank
  && (not (t.view.draining rank))
  &&
  match t.rel with
  | Some r ->
      Simnet.Faults.node_up r.faults rank
      &&
      if t.view.relative then t.view.trusted rank
      else r.susp_count.(rank) = 0
  | None -> true

let rank_overloaded t rank = mem t rank && t.overloaded.(rank)
