module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox
module Mutex = Marcel.Mutex
module Semaphore = Marcel.Semaphore

(* Byte stream with blocking reads and message-end markers, fed by the
   dispatcher threads and drained by user unpacks. *)
module Assembler = struct
  type item = Data of Bytes.t | End_of_message

  type t = {
    items : item Queue.t;
    mutable head_off : int;
    waiters : Waiters.t;
    on_pop : int -> unit;
        (* consumption hook: called with the chunk length every time a
           whole Data chunk (= one packet payload) has been drained —
           where credit replenishment and buffered-byte accounting hang *)
  }

  let create on_pop =
    {
      items = Queue.create ();
      head_off = 0;
      waiters = Waiters.create ();
      on_pop;
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

exception Partitioned = Config.Partitioned

(* Peak-tracking occupancy counter for one buffering point. *)
type probe_point = { mutable pp_cur : int; mutable pp_peak : int }

let pp_make () = { pp_cur = 0; pp_peak = 0 }

let pp_add p n =
  p.pp_cur <- p.pp_cur + n;
  if p.pp_cur > p.pp_peak then p.pp_peak <- p.pp_cur

let pp_sub p n = p.pp_cur <- p.pp_cur - n

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
   over it, here and in the planes, goes in ascending rank order (see
   {!Pairs}), which is part of the simulated schedule. *)
type t = {
  engine : Engine.t;
  mtu : int;
  patience : Time.span;
  gateway_overhead : Time.span;
  extra_gateway_copy : bool;
  ingress_cap_mb_s : float option;
  all_ranks : int list; (* ascending *)
  routing : Channel.t Routing.t;
  mutable rel : Reliability.hooks;
  mutable cr : Credits.hooks;
      (* the reliability and credit planes, chosen once by [create]: a
         vchannel without a fault plane or credits runs the plain
         hooks and holds no state of either plane *)
  mutable sched : Sched.t option; (* aggregating scheduler (sched=aggreg) *)
  buffered : probe_point Pairs.t;
      (* [me].(origin): assembler bytes, across the pair's flows *)
  endpoints : (int, endpoint) Hashtbl.t Pairs.t; (* [me].(origin), by flow *)
  gateways : gateway array;
  incoming : (int * int) Mailbox.t array;
      (* any-source: (origin, flow) queue *)
  pumps : (int, pump) Hashtbl.t Pairs.t;
      (* [node].(out dst), by out channel id *)
  send_locks : (int, Mutex.t) Hashtbl.t Pairs.t;
      (* [src].(dst), by flow: message serialization *)
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

let buffered t ~me ~origin = Pairs.get t.buffered me origin pp_make

(* Consumption is accounted per (me, origin) — credits meter the pair,
   whichever flows the bytes belong to — so every assembler of the pair
   pops into the same counters. *)
let endpoint t ~me ~origin ~flow =
  slot_entry t.endpoints me origin flow (fun () ->
      let pop n =
        pp_sub (buffered t ~me ~origin) n;
        t.cr.consumed ~me ~origin
      in
      { ep_starts = Mailbox.create (); ep_asm = Assembler.create pop })

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
  t.rel.no_route (Printf.sprintf "Vchannel: no route from %d to %d" at dst)

let next_hop t ~at ~dst =
  try Routing.next_hop t.routing ~src:at ~dst
  with Not_found -> raise (unroutable t ~at ~dst)

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

(* Ship one packet over the current routes, as a plain vchannel does;
   the reliability plane wraps this with its retries. *)
let ship_once t ~at header payload payload_len =
  send_hop ~at (next_hop t ~at ~dst:header.Generic_tm.final_dst) ~header
    ~payload ~payload_len

(* Ship a control packet from [at] on its own daemon thread. Best-effort:
   each control protocol recovers a lost or unroutable packet itself
   (probes, retries, re-handshakes), so the sender never waits on it. *)
let ship_detached t ~kind ~at header payload =
  Engine.spawn t.engine ~daemon:true
    ~name:
      (Printf.sprintf "vchannel.%s.%d->%d" kind at header.Generic_tm.final_dst)
    (fun () ->
      try
        t.rel.ship ~at header payload header.Generic_tm.payload_len
      with Partitioned _ | Config.Peer_unreachable _ -> ())

(* The lock that serializes emission for a (src, dst) pair: with a
   scheduler it is the scheduler's pair lock (aggregates are numbered
   and shipped under it), without one it is the flow-0 message lock —
   the only flow that exists. Crash re-emission must hold it so
   re-emitted packets cannot interleave with a packet being emitted. *)
let emission_lock t ~src ~dst =
  match t.sched with
  | Some sc -> Sched.pair_lock sc ~src ~dst
  | None -> send_lock t ~src ~dst ~flow:0

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

(* Whether the hop [viewer -> n] is unusable. Non-members of the
   current epoch are excluded from routing exactly like crashed nodes:
   never a relay, never an endpoint. Under the fixed view every
   physical rank is a member and the predicate reduces to the
   reliability plane's crash/suspicion test. *)
let down t viewer n = (not (t.view.member n)) || t.rel.distrusts viewer n

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
  if t.rel.node_up me then t.on_col ~me ~origin:header.Generic_tm.origin payload

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
let faults t = t.rel.faults
let patience t = t.patience
let reachable t ~src ~dst = mem t src && mem t dst && routed t src dst

(* An epoch swap the view has already published: departed ranks lose any
   Overloaded report, and the routes are recomputed — on a reliable
   vchannel, after the sentinels learn the joined ranks and forget the
   departed ones, re-emitting only the flows whose route changed. *)
let swap_epoch t change =
  List.iter (fun rank -> t.overloaded.(rank) <- false) change.Topology.departed;
  t.rel.swap change;
  t.on_health_change ()

(* Whether [rank] holds nothing in flight that this vchannel counts:
   acks cover every re-emission-log entry it originated or is owed, and
   its forwarding-pool slots are free. [gw_acquire] counts slots only
   under [overload_track] (credits or gw_pool set); otherwise the slot
   half always holds, and packets still in the rank's pumps go unseen. *)
let quiescent t rank =
  check_rank t "quiescent" rank;
  t.gateways.(rank).gw_slots.pp_cur = 0
  && List.for_all
       (fun f ->
         f.Reliability.Stats.unacked = 0
         || (f.flow_src <> rank && f.flow_dst <> rank))
       (t.rel.flows ())

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
  if not physical then t.rel.ship ~at:src header payload payload_len
  else
    let down _ n = not (t.rel.node_up n) in
    match Routing.first_hop t.routing ~down ~src ~dst with
    | Some hop -> (
        try send_hop ~at:src hop ~header ~payload ~payload_len
        with Config.Peer_unreachable msg -> raise (Partitioned msg))
    | None ->
        raise
          (Partitioned
             (Printf.sprintf "Vchannel.ship_top: no physical path from %d to %d"
                src dst))

(* Deliver a packet that reached its final node, through the
   reliability plane's sequence check. *)
let deliver_local t ~me header payload =
  let origin = header.Generic_tm.origin in
  let frame ~flow ~first ~last chunk =
    let ep = endpoint t ~me ~origin ~flow in
    if first then begin
      Mailbox.put ep.ep_starts ();
      Mailbox.put t.incoming.(me) (origin, flow)
    end;
    if Bytes.length chunk > 0 then begin
      pp_add (buffered t ~me ~origin) (Bytes.length chunk);
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
  t.rel.deliver ~me header accept

(* ------------------------------------------------------------------ *)
(* Gateway watermarks: Overloaded load reports with hysteresis *)

let set_overload t node flag =
  if flag <> t.overloaded.(node) then begin
    t.overloaded.(node) <- flag;
    if flag then t.overload_events <- t.overload_events + 1;
    t.rel.overload_edge node flag;
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
        (if t.rel.node_up node then
           try
             t.rel.ship ~at:node header payload (Bytes.length payload)
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
            if col then handle_col t ~me:node header payload
            else if top then t.view.on_top ~me:node payload
            else if hs then t.rel.on_hs ~me:node header payload
            else if crd then t.cr.on_crd ~me:node header payload
            else if ack then t.rel.on_ack header
            else if t.rel.node_up node then
              deliver_local t ~me:node header payload
            (* else the destination host is down: the data dies with it;
               the origin's log re-emits once it comes back. *)
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

(* The tail every data packet takes at its origin, scheduled or not:
   charge [charge] credits, have the reliability plane number and log
   the packet, then ship. The first [payload_len] bytes of [payload] are
   the packet's. *)
let emit_data t ~charge header payload =
  let src = header.Generic_tm.origin in
  t.cr.charge ~src ~dst:header.Generic_tm.final_dst charge;
  let header = t.rel.seal header payload in
  t.rel.ship ~at:src header payload header.Generic_tm.payload_len

(* Emit one aggregate: the scheduler's [emit] callback, running with the
   pair's emission lock held. Credits: one per data-carrying
   constituent frame — the receiver's assembler pops each frame as its
   own chunk, so consumption-side accounting matches exactly.
   Reliability: the whole aggregate takes ONE sequence number and ONE
   re-emission log slot, riding the TCP window as one send. Gateways
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

(* The scheduler's [emit] callback: the credit plane splits a train
   that would charge more than the pair's budget. *)
let emit_frames t ~src ~dst frames =
  List.iter (emit_one_aggregate t ~src ~dst) (t.cr.split frames)

(* The plain credit plane: nothing is charged, granted or split. *)
let no_credits =
  {
    Credits.charge = (fun ~src:_ ~dst:_ _ -> ());
    split = (fun frames -> [ frames ]);
    on_crd = (fun ~me:_ _ _ -> ());
    consumed = (fun ~me:_ ~origin:_ -> ());
    crash = (fun _ () -> ());
    stats = (fun () -> None);
  }

let create session ?(mtu = Config.default_vchannel_mtu)
    ?(patience = Config.default_route_patience)
    ?(gateway_overhead = Config.gateway_packet_overhead)
    ?(extra_gateway_copy = false) ?ingress_cap_mb_s ?credits ?gw_pool ?faults
    ?sched channels =
  if channels = [] then invalid_arg "Vchannel.create: no channels";
  if mtu <= Generic_tm.sub_header_size then
    invalid_arg "Vchannel.create: mtu too small";
  let sched_cfg =
    match sched with
    | None -> None
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
  let pool = Option.value gw_pool ~default:Config.default_gateway_pool in
  let node_up =
    match faults with Some f -> Simnet.Faults.node_up f | None -> fun _ -> true
  in
  let routing =
    Routing.create ~n
      (List.map (fun c -> (c, Channel.ranks c)) channels)
      ~down:(fun _ n -> not (node_up n))
  in
  let rec t =
    {
      engine = Session.engine session;
      mtu;
      patience;
      gateway_overhead;
      extra_gateway_copy;
      ingress_cap_mb_s;
      all_ranks;
      routing;
      rel = plain;
      cr = no_credits;
      sched = None;
      buffered = Pairs.create n;
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
  and plain =
    {
      Reliability.ship = (fun ~at -> ship_once t ~at);
      seal = (fun header _ -> header);
      deliver = (fun ~me:_ _ accept -> accept ());
      on_hs = (fun ~me:_ _ _ -> ());
      on_ack = ignore;
      node_up = (fun _ -> true);
      distrusts = (fun _ _ -> false);
      no_route = (fun msg -> Invalid_argument msg);
      overload_edge = (fun _ _ -> ());
      swap = (fun _ -> Routing.recompute routing ~down:(down t));
      ack_for = (fun ~me:_ ~origin:_ -> None);
      await_route = (fun ~at:_ ~dst:_ -> ());
      faults = None;
      sentinel = (fun _ -> None);
      stats = (fun () -> None);
      flows = (fun () -> []);
      log_peaks = ignore;
    }
  in
  List.iter
    (fun node ->
      List.iter (spawn_dispatcher t ~node) (Routing.channels_of routing node))
    all_ranks;
  let ship_detached = ship_detached t in
  Option.iter
    (fun f ->
      List.iter Channel.relax_checked channels;
      t.rel <-
        Reliability.create ~unacked_cap:t.unacked_cap
          {
            Reliability.engine = t.engine;
            patience;
            routing;
            ranks = all_ranks;
            send = ship_once t;
            ship_detached;
            emission_lock = emission_lock t;
            reroute =
              (fun () ->
                Routing.recompute routing ~down:(down t)
                  ~overloaded:t.overloaded);
            relative = (fun () -> t.view.relative);
            after_crash = (fun node -> t.view.on_crash node);
            after_verdict = (fun ~me peer s -> t.view.on_verdict ~me peer s);
            health = (fun () -> t.on_health_change ());
            credit_crash = (fun node -> t.cr.crash node);
          }
          f)
    faults;
  Option.iter
    (fun budget ->
      t.cr <-
        Credits.create ~n ~budget
          { Credits.engine = t.engine; routing; ship_detached; rel = t.rel })
    credits;
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
         (* A sender out of credits blocks here holding the flow's
            message lock, which is what serializes the flow. Empty
            last-packet markers carry no bytes and are free. *)
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
  else if t.rel.distrusts src dst then Iface.Down
  else if src = dst then Iface.Up
  else
    match Routing.via t.routing ~src ~dst with
    | [] -> Iface.Down
    | via ->
        let n = List.length via in
        let base = Routing.base_length t.routing ~src ~dst in
        (* Overload shedding on the current path (destination or any
           relay above its watermark) outranks mere route lengthening:
           after rerouting away from an overloaded gateway the flow
           reports Degraded like any failover. *)
        if t.overloaded.(dst) || List.exists (fun h -> t.overloaded.(h)) via
        then Iface.Overloaded
        else if base > 0 && n > base then Iface.Degraded (n - base)
        else Iface.Up

include Reliability.Stats
include Credits.Stats

let rel_stats t = t.rel.stats ()
let flow_stats t = t.rel.flows ()
let credit_stats t = t.cr.stats ()

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
    Option.map (fun c -> c.credit_budget * t.mtu) (credit_stats t)
  in
  Pairs.iter
    (fun me origin p -> row "assembler_bytes" me origin p.pp_peak asm_bound)
    t.buffered;
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
  t.rel.log_peaks (fun src dst peak ->
      row "unacked_packets" src dst peak (Some t.unacked_cap));
  List.rev !rows

(* The collectives' fail-fast oracle, answered by the membership
   view: always true under the fixed view, where quorum is not a
   concept the channel tracks. *)
let has_quorum t ~viewer = t.view.has_quorum viewer

let sentinel t ~rank = if mem t rank then t.rel.sentinel rank else None

let suspicion_timeline t =
  List.concat_map
    (fun me ->
      match sentinel t ~rank:me with
      | Some s -> List.map (fun ev -> (me, ev)) (Sentinel.timeline s)
      | None -> [])
    t.all_ranks
  |> List.stable_sort (fun (_, a) (_, b) ->
         compare a.Sentinel.ev_at b.Sentinel.ev_at)

let engine t = t.engine

(* The Collectives layer's liveness oracle: a rank participates in a
   collective iff it is part of the vchannel, a member of the current
   topology epoch (and not mid-drain), actually up, and not under
   suspicion — the same predicate routing uses, so a tree built over
   live ranks is also routable. Under relative suspicion the view says
   who is trusted; otherwise nobody's suspicion may stand, whoever the
   viewer. *)
let rank_alive t rank =
  mem t rank && t.view.member rank
  && (not (t.view.draining rank))
  &&
  if t.view.relative then t.rel.node_up rank && t.view.trusted rank
  else not (t.rel.distrusts rank rank)

let rank_overloaded t rank = mem t rank && t.overloaded.(rank)
