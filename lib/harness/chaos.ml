(* The deterministic chaos harness: fig-4-style workloads driven through
   the fault plane, checking that reliable delivery actually delivers —
   every received byte is compared against what was packed — while
   recording how much latency and bandwidth degrade under each injected
   failure. All numbers in a report are simulated quantities, so a report
   for a given seed and workload set is byte-identical across runs and
   across worker counts (the jobs fan out over a {!Parsim} pool). *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Faults = Simnet.Faults
module Channel = Madeleine.Channel
module Vc = Madeleine.Vchannel
module Mb = Madeleine.Membership
module Cf = Clusterfile

open Json

type result = {
  fields : (string * Json.t) list;
  line : string;
  gates : (string * bool) list;
}

type workload = {
  name : string;
  doc : string;
  run : seed:int -> quick:bool -> result;
}

let f2 x = Float (x, 2)
let f3 x = Float (x, 3)
let ints l = String.concat "; " (List.map string_of_int l)
let int_list l = List (List.map (fun n -> Int n) l)
let table rows = List (List.map (fun row -> Obj row) rows)

(* Every instrumented queue of a vchannel, as a table of its peaks. *)
let queue_table queues =
  table
    (List.map
       (fun q ->
         [
           ("point", Str q.Vc.q_point);
           ("node", Int q.Vc.q_node);
           ("peer", Int q.Vc.q_peer);
           ("peak", Int q.Vc.q_peak);
           ("bound", match q.Vc.q_bound with Some v -> Int v | None -> Null);
         ])
       queues)

let bounded_queues queues =
  List.for_all
    (fun q ->
      match q.Vc.q_bound with Some b -> q.Vc.q_peak <= b | None -> true)
    queues

(* One verified ping-pong under one fault setting: a row of the fault
   table. *)
type row = {
  scenario : string;
  size : int;
  drop_pct : float; (* per-link injected rate, percent *)
  lat_us : float; (* one-way, averaged over the iterations *)
  bw_mb_s : float;
  drops : int; (* frames the plane decided to drop *)
  corrupts : int; (* frames the plane corrupted in flight *)
  dups : int; (* frames the plane delivered twice *)
  delays : int; (* frames held back so later ones overtake *)
  retransmissions : int;
  crc_rejects : int;
  intact : bool; (* every delivered message matched the packed bytes *)
}

(* ------------------------------------------------------------------ *)
(* Every world is Clusterfile text: Ethernet segments, each a (fabric
   name, ranks) pair carrying one tcp network and one channel "c-NAME"
   over its ranks, on nodes n0..nK; a rank on several segments is a
   gateway. The plane of a [faults] line covers every segment unless
   [faulty] is false; [faults] adds [fault] lines and [vchannel] the
   options of a vchannel "vc" over every channel, in segment order. *)

let world ~seed ?(faulty = true) ?window ?(faults = []) ?vchannel segments =
  let hosts = 1 + List.fold_left max 0 (List.concat_map snd segments) in
  let names ranks = String.concat "," (List.map (Printf.sprintf "n%d") ranks) in
  let nets_of i =
    List.filter_map
      (fun (net, ranks) -> if List.mem i ranks then Some net else None)
      segments
  in
  let window =
    Option.fold window ~none:"" ~some:(Printf.sprintf " window=%d")
  in
  let lines =
    (if faulty then [ Printf.sprintf "faults seed=%d" seed ] else [])
    @ List.map
        (fun (net, _) -> Printf.sprintf "network %s type=tcp%s" net window)
        segments
    @ List.init hosts (fun i ->
          Printf.sprintf "node n%d nets=%s" i (String.concat "," (nets_of i)))
    @ faults
    @ List.map
        (fun (net, ranks) ->
          Printf.sprintf "channel c-%s net=%s nodes=%s" net net (names ranks))
        segments
    @ Option.to_list
        (Option.map
           (Printf.sprintf "vchannel vc channels=%s %s"
              (String.concat ","
                 (List.map (fun (net, _) -> "c-" ^ net) segments)))
           vchannel)
  in
  Cf.load (String.concat "\n" lines)

(* A world's fault plane, and its engine, fault plane and vchannel;
   the membership layer of a [version=] world. *)
let plane w = Option.get (Cf.faults w)
let parts w = (Cf.engine w, plane w, Cf.vchannel w "vc")
let membership w = Option.get (Cf.membership w "vc")

(* [fault KIND] lines at [rate] on every link of [segments]; none at a
   zero rate. Rates print with 17 digits, so they parse back exactly. *)
let link_faults kind rate segments =
  if rate > 0.0 then
    List.concat_map
      (fun (name, ranks) ->
        List.map
          (fun i ->
            Printf.sprintf "fault %s net=%s node=n%d rate=%.17g" kind name i
              rate)
          ranks)
      segments
  else []

let slow ~net ~node mb_s =
  Printf.sprintf "fault slow net=%s node=n%d mb_s=%.17g" net node mb_s

(* Two hosts on one segment, for the raw-TCP and ping-pong workloads. *)
let eth = [ ("eth", [ 0; 1 ]) ]

(* Ping-pong with end-to-end integrity verification: both directions
   compare the unpacked bytes against the packed payload. A peer the
   transport declares dead ([Peer_unreachable], or the stall of the
   partner it strands) leaves a row not intact that measured nothing. *)
let verified_pingpong w ~size ~iters =
  let engine = Cf.engine w and channel = Cf.channel w "c-eth" in
  let ep0 = Channel.endpoint channel ~rank:0 in
  let ep1 = Channel.endpoint channel ~rank:1 in
  let data = Harness.payload size 9L in
  let intact = ref true in
  let receive ep ~remote =
    let sink = Bytes.create size in
    Harness.mad_recv ep ~remote sink;
    if not (Bytes.equal sink data) then intact := false;
    sink
  in
  match
    Harness.pingpong engine ~iters
      ~ping:(fun () ->
        Harness.mad_send ep0 ~remote:1 data;
        ignore (receive ep0 ~remote:1))
      ~pong:(fun () -> Harness.mad_send ep1 ~remote:0 (receive ep1 ~remote:0))
  with
  | span -> (Some span, !intact)
  | exception (Madeleine.Config.Peer_unreachable _ | Engine.Stalled _) ->
      (None, false)

let iters_for size = if size <= 4096 then 6 else 4

let finish_row ~scenario ~drop ~size w (span, intact) =
  let st = Faults.stats (plane w) in
  let retransmissions, crc_rejects = Tcpnet.net_stats (Cf.tcp_net w "eth") in
  {
    scenario;
    size;
    drop_pct = drop *. 100.0;
    lat_us = Option.fold span ~none:0.0 ~some:Time.to_us;
    bw_mb_s =
      Option.fold span ~none:0.0 ~some:(Time.rate_mb_s ~bytes_count:size);
    drops = st.Faults.frames_dropped;
    corrupts = st.Faults.frames_corrupted;
    dups = st.Faults.frames_duplicated;
    delays = st.Faults.frames_delayed;
    retransmissions;
    crc_rejects;
    intact;
  }

let drop_row ~seed ~drop ~size =
  let w = world ~seed eth ~faults:(link_faults "drop" drop eth) in
  finish_row ~scenario:"drop" ~drop ~size w
    (verified_pingpong w ~size ~iters:(iters_for size))

let corrupt_row ~seed ~rate ~size =
  let w = world ~seed eth ~faults:(link_faults "corrupt" rate eth) in
  finish_row ~scenario:"corrupt" ~drop:rate ~size w
    (verified_pingpong w ~size ~iters:(iters_for size))

(* A link flap in the middle of the exchange: everything delivered while
   the link is down is lost and must be retransmitted after it heals. *)
let flap_row ~seed ~size =
  let w =
    world ~seed eth
      ~faults:[ "fault flap net=eth node=n0 at_us=4000 for_us=5000" ]
  in
  finish_row ~scenario:"flap" ~drop:0.0 ~size w
    (verified_pingpong w ~size ~iters:8)

(* Duplication and reordering on both endpoints: the receiver's
   sequence check must discard the duplicates and hold the frames that
   overtake, and the retransmission path must repair any hole that
   outlives the overtaking. *)
let reorder_row ~seed ~size =
  let w = world ~seed eth in
  let faults = plane w in
  for i = 0 to 1 do
    Faults.set_reorder faults ~fabric:"eth" ~node:i ~rate:0.05
      ~jitter:(Time.us 300.0);
    Faults.set_duplicate faults ~fabric:"eth" ~node:i ~rate:0.03
  done;
  finish_row ~scenario:"reorder" ~drop:0.0 ~size w
    (verified_pingpong w ~size ~iters:(iters_for size))

(* A rogue device monopolizes one host's PCI bus mid-transfer: no loss,
   but every PIO/DMA on that host crawls for the duration. *)
let stall_row ~seed ~size =
  let w =
    world ~seed eth ~faults:[ "fault stall node=n1 at_us=2000 for_us=4000" ]
  in
  finish_row ~scenario:"pci-stall" ~drop:0.0 ~size w
    (verified_pingpong w ~size ~iters:4)

(* The fault table: a drop-rate x size sweep, a corruption sweep, a
   mid-exchange link flap, a reorder/duplication exchange and a PCI
   stall. Reliable TCP cuts every send at the MSS and recovers each
   lost segment by selective repeat, so a 64 kB send at 1% drop (45
   segments) costs about clean latency; 12 consecutive expiries of one
   segment would declare the peer dead. The 5% rate is still swept only
   over messages of at most 4 kB, a limit set when one send was one
   frame, lost whole whenever any of its fragments was. A row whose
   peer died anyway would read latency 0.00 us and bandwidth 0.00 MB/s
   (nothing was measured, and no clean-latency ratio is printed),
   intact "NO", and fail the [rows-intact] gate. *)
let pingpong_faults ~seed ~quick =
  let rates = if quick then [ 0.0; 0.01 ] else [ 0.0; 0.005; 0.01; 0.05 ] in
  let sizes =
    if quick then [ 4; 4096; 16384 ] else [ 4; 256; 4096; 16384; 65536 ]
  in
  let drop_rows =
    List.concat_map
      (fun drop ->
        List.filter_map
          (fun size ->
            if drop >= 0.05 && size > 4096 then None
            else Some (drop_row ~seed ~drop ~size))
          sizes)
      rates
  in
  let corrupt_rows =
    List.map
      (fun size -> corrupt_row ~seed ~rate:0.02 ~size)
      (if quick then [ 16384 ] else [ 4096; 16384 ])
  in
  let rows =
    drop_rows @ corrupt_rows
    @ [
        flap_row ~seed ~size:16384;
        reorder_row ~seed ~size:16384;
        stall_row ~seed ~size:65536;
      ]
  in
  (* Degradation is judged against the clean (0%) row of the same size. *)
  let clean_lat size =
    List.find_map
      (fun row ->
        if row.scenario = "drop" && row.drop_pct = 0.0 && row.size = size then
          Some row.lat_us
        else None)
      rows
  in
  let row_line row =
    Printf.sprintf
      "%-10s %8d %7.1f %12.2f %10.2f %6d %8d %5d %5d %8d %5d %7s%s\n"
      row.scenario row.size row.drop_pct row.lat_us row.bw_mb_s row.drops
      row.corrupts row.dups row.delays row.retransmissions row.crc_rejects
      (if row.intact then "yes" else "NO")
      (match clean_lat row.size with
      | Some base when row.drop_pct > 0.0 && base > 0.0 && row.lat_us > 0.0 ->
          Printf.sprintf "  (%.2fx clean latency)" (row.lat_us /. base)
      | _ -> "")
  in
  let row_fields row =
    [
      ("scenario", Str row.scenario);
      ("size", Int row.size);
      ("drop_pct", f2 row.drop_pct);
      ("lat_us", f2 row.lat_us);
      ("bw_mb_s", f2 row.bw_mb_s);
      ("drops", Int row.drops);
      ("corrupts", Int row.corrupts);
      ("dups", Int row.dups);
      ("delays", Int row.delays);
      ("retransmissions", Int row.retransmissions);
      ("crc_rejects", Int row.crc_rejects);
      ("intact", Bool row.intact);
    ]
  in
  {
    fields = [ ("rows", table (List.map row_fields rows)) ];
    line =
      Printf.sprintf "%-10s %8s %7s %12s %10s %6s %8s %5s %5s %8s %5s %7s\n"
        "scenario" "size(B)" "drop%" "latency(us)" "bw(MB/s)" "drops"
        "corrupts" "dups" "late" "retrans" "crc" "intact"
      ^ String.concat "" (List.map row_line rows);
    gates = [ ("rows-intact", List.for_all (fun row -> row.intact) rows) ];
  }

(* ------------------------------------------------------------------ *)
(* Ranks 0 and 3 joined by two redundant gateways (ranks 1 and 2), and
   ranks 0 and 2 joined by one (rank 1). *)
let two_gateways = [ ("ethA", [ 0; 1; 2 ]); ("ethB", [ 1; 2; 3 ]) ]
let one_gateway = [ ("ethA", [ 0; 1 ]); ("ethB", [ 1; 2 ]) ]

(* Four ranks on one segment, for the partition workloads. *)
let four_hosts = [ ("eth", [ 0; 1; 2; 3 ]) ]

(* A reliable vchannel whose membership is a versioned epoch snapshot
   (coordinator rank 0, epoch 1), so ranks can drain out of and join
   back into the session while traffic flows; with [election=on] the
   coordinator seat is quorum-elected. *)
let elastic = "mtu=4096 reliable=true version=1 coordinator=n0"

(* A deadline-bounded condition wait, so a broken invariant trips a
   gate instead of hanging the harness. *)
let wait_until engine ?(deadline_us = 200_000.0) cond =
  let deadline = Time.add (Engine.now engine) (Time.us deadline_us) in
  while (not (cond ())) && Time.( < ) (Engine.now engine) deadline do
    Engine.sleep (Time.us 250.0)
  done

(* ------------------------------------------------------------------ *)
(* One verified stream: [messages] payloads, each a copy of the
   stream's base buffer stamped with its index. The receiver checks
   every delivery's bytes, its position and its per-index count. *)

type stream = {
  base : Bytes.t;
  received : int array; (* deliveries per index *)
  mutable last : int; (* the latest delivered index *)
  mutable count : int; (* deliveries so far *)
  mutable ok : bool; (* every delivery so far intact and in order *)
  mutable partitioned : bool; (* a send failed with [Partitioned] *)
  mutable finish : Time.t; (* when the latest delivery landed *)
}

let stream_state ~tag ~size ~messages =
  {
    base = Harness.payload size (Int64.of_int tag);
    received = Array.make messages 0;
    last = -1;
    count = 0;
    ok = true;
    partitioned = false;
    finish = Time.zero;
  }

let stream_payload s k =
  let p = Bytes.copy s.base in
  Bytes.set_int32_le p 0 (Int32.of_int k);
  p

let check_delivery s got =
  let k = Int32.to_int (Bytes.get_int32_le got 0) in
  s.count <- s.count + 1;
  if k < 0 || k >= Array.length s.received then s.ok <- false
  else begin
    s.received.(k) <- s.received.(k) + 1;
    if k <= s.last || not (Bytes.equal got (stream_payload s k)) then
      s.ok <- false;
    s.last <- k
  end

(* Bytes intact, in order, exactly once, and no [Partitioned]. *)
let verified s =
  s.ok && (not s.partitioned) && Array.for_all (fun n -> n = 1) s.received

(* Spawns the stream's sender and then its receiver, [src] to [dst] on
   [flow]; both wait for [start]. [pause] (k, cond) holds the sender
   before index k until [cond]. Both waits are {!wait_until}s. A [Partitioned] send marks the stream
   and skips the message, unless [retry] keeps retrying it (a post-heal
   flow starts before the suspicion has drained). [on_delivery k] runs
   in the receiver once delivery k is checked. *)
let stream engine vc ~tag ~src ~dst ~size ~messages ?flow
    ?(start = fun () -> true) ?pause ?(retry = false) ?(on_delivery = ignore)
    () =
  let s = stream_state ~tag ~size ~messages in
  let sink = Bytes.create size in
  Harness.spawn_one_way engine ~messages
    ~send:(fun k ->
      if k = 0 then wait_until engine start;
      (match pause with
      | Some (at, cond) when k = at -> wait_until engine cond
      | _ -> ());
      let rec send tries =
        match Vc.begin_packing vc ?flow ~me:src ~remote:dst with
        | exception Vc.Partitioned _ when retry && tries < 400 ->
            Engine.sleep (Time.us 500.0);
            send (tries + 1)
        | exception Vc.Partitioned _ -> s.partitioned <- true
        | oc ->
            Vc.pack oc (stream_payload s k);
            Vc.end_packing oc
      in
      send 0)
    ~recv:(fun k ->
      if k = 0 then wait_until engine start;
      Harness.vc_recv vc ?flow ~me:dst ~remote:src sink;
      check_delivery s sink;
      s.finish <- Engine.now engine;
      on_delivery k);
  s

(* ------------------------------------------------------------------ *)
(* Gateway failover: rank 0 talks to rank 3 across two Ethernet
   segments joined by two redundant gateways (ranks 1 and 2). The
   first-hop gateway is crashed after the first message lands; the
   remaining messages must arrive intact over the recomputed route.
   Crashing the second gateway then partitions the virtual channel. *)

let failover_run ~seed ~size ~messages =
  let engine, faults, vc =
    parts (world ~seed two_gateways ~vchannel:"mtu=4096 reliable=true")
  in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let other_gw = if gw = 1 then 2 else 1 in
  let partitioned = ref false in
  let route_after = ref [] in
  let s =
    stream engine vc ~tag:11 ~src:0 ~dst:3 ~size ~messages
      ~on_delivery:(fun k ->
        (* The crash lands while later messages are still in flight. *)
        if k = 0 then Faults.crash_now faults ~node:gw ();
        if k = messages - 1 then begin
          route_after := Vc.route_via vc ~src:0 ~dst:3;
          Faults.crash_now faults ~node:other_gw ();
          match Vc.begin_packing vc ~me:0 ~remote:3 with
          | exception Vc.Partitioned _ -> partitioned := true
          | _oc -> ()
        end)
      ()
  in
  Engine.run engine;
  let intact = verified s && not (List.mem gw !route_after) in
  let stats =
    match Vc.rel_stats vc with Some s -> s | None -> assert false
  in
  let finish_us = Time.to_us s.finish in
  {
    fields =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("crashed_gateway", Int gw);
        ("route_after", int_list !route_after);
        ("reroutes", Int stats.Vc.reroutes);
        ("reemitted", Int stats.Vc.reemitted);
        ("dup_drops", Int stats.Vc.dup_drops);
        ("intact", Bool intact);
        ("partitioned_after_second_crash", Bool !partitioned);
        ("finish_us", f2 finish_us);
      ];
    line =
      Printf.sprintf
        "failover: %d x %d B via gateway %d; crash mid-stream -> route [%s], \
         %d reroute(s), %d re-emitted, %d dup(s) dropped, intact=%s, \
         partitioned after second crash=%s, finish=%.2f us\n"
        messages size gw (ints !route_after) stats.Vc.reroutes
        stats.Vc.reemitted stats.Vc.dup_drops
        (if intact then "yes" else "NO")
        (if !partitioned then "yes" else "NO")
        finish_us;
    gates =
      [
        ("failover-intact", intact);
        ("failover-partition-detected", !partitioned);
        ("failover-rerouted", stats.Vc.reroutes >= 1);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Sliding-window goodput: a one-way TCP stream under per-link loss,
   measured end to end (last byte verified at the receiver), with the
   selective-repeat window against the same net degraded to
   stop-and-wait. Each run also reports its dropped frames and its
   retransmissions. *)

let goodput_one ~seed ~size ~messages ~window ~drop =
  let w = world ~seed eth ~window ~faults:(link_faults "drop" drop eth) in
  let engine = Cf.engine w and stack = Cf.tcp_stack w ~net:"eth" in
  let c0, c1 = Tcpnet.socketpair (stack "n0") (stack "n1") in
  let payload m = Harness.payload size (Int64.of_int (200 + m)) in
  let intact = ref true in
  let buf = Bytes.create size in
  let finish =
    Harness.one_way engine ~messages
      ~send:(fun m -> Tcpnet.send c0 (payload m))
      ~recv:(fun m ->
        Tcpnet.recv c1 buf ~off:0 ~len:size;
        if not (Bytes.equal buf (payload m)) then intact := false)
  in
  let retransmissions, _ = Tcpnet.net_stats (Cf.tcp_net w "eth") in
  ( Time.rate_mb_s ~bytes_count:(size * messages) finish,
    !intact,
    (Faults.stats (plane w)).Faults.frames_dropped,
    retransmissions )

let goodput_run ~seed ~size ~messages ~window ~drop =
  let window_mb_s, ok_w, drops_w, rexmit_w =
    goodput_one ~seed ~size ~messages ~window ~drop
  in
  let stopwait_mb_s, ok_s, drops_s, rexmit_s =
    goodput_one ~seed ~size ~messages ~window:1 ~drop
  in
  let speedup =
    if stopwait_mb_s > 0.0 then window_mb_s /. stopwait_mb_s else 0.0
  in
  let intact = ok_w && ok_s in
  {
    fields =
      [
        ("size", Int size);
        ("messages", Int messages);
        ("drop_pct", f2 (drop *. 100.0));
        ("window", Int window);
        ("window_mb_s", f2 window_mb_s);
        ("window_drops", Int drops_w);
        ("window_retransmissions", Int rexmit_w);
        ("stopwait_mb_s", f2 stopwait_mb_s);
        ("stopwait_drops", Int drops_s);
        ("stopwait_retransmissions", Int rexmit_s);
        ("speedup", f2 speedup);
        ("intact", Bool intact);
      ];
    line =
      Printf.sprintf
        "goodput:  %d x %d B at %.1f%% drop: window=%d %.2f MB/s (%d \
         drop(s), %d retrans) vs stop-and-wait %.2f MB/s (%d drop(s), %d \
         retrans) -> %.2fx, intact=%s\n"
        messages size (drop *. 100.0) window window_mb_s drops_w rexmit_w
        stopwait_mb_s drops_s rexmit_s speedup
        (if intact then "yes" else "NO");
    gates =
      [
        ("goodput-intact", intact);
        ("goodput-window-speedup", speedup >= 2.0);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Crash-restart: rank 0 streams to rank 2 through the only gateway
   (rank 1). The gateway dies mid-stream and restarts [restart] later —
   inside the vchannel's patience, so waiting senders ride out the hole
   and origin logs replay through the recomputed route. Once phase one
   is fully delivered, the origin itself dies and restarts with a new
   crash epoch; its next sends block until the receiver's session
   handshake restores the flow cursor, then phase two flows. Delivery
   must be exactly-once, bit-identical, across both restarts. *)

let crash_restart_run ~seed ~size ~messages =
  let engine, faults, vc =
    parts (world ~seed one_gateway ~vchannel:"mtu=4096 reliable=true")
  in
  let restart = Time.us 5_000.0 in
  let s =
    stream engine vc ~tag:17 ~src:0 ~dst:2 ~size ~messages:(2 * messages)
      (* The receiver crashes the origin once phase one has fully
         landed; the paused sender models the restarted process
         resuming the stream after the reboot. *)
      ~pause:(messages, fun () -> Faults.epoch faults 0 <> 0)
      ~on_delivery:(fun k ->
        if k = 0 then Faults.crash_now faults ~node:1 ~restart_after:restart ();
        if k = messages - 1 then
          Faults.crash_now faults ~node:0 ~restart_after:(Time.us 2_000.0) ())
      ()
  in
  Engine.run engine;
  let stats = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  let module S = Madeleine.Sentinel in
  let suspicions =
    List.map
      (fun (observer, ev) ->
        [
          ("at_us", f2 (Time.to_us (Time.diff ev.S.ev_at Time.zero)));
          ("observer", Int observer);
          ("peer", Int ev.S.ev_peer);
          ("from", Str (S.state_name ev.S.ev_from));
          ("to", Str (S.state_name ev.S.ev_to));
          ("phi", f3 ev.S.ev_phi);
        ])
      (Vc.suspicion_timeline vc)
  in
  let flows =
    List.map
      (fun fs ->
        [
          ("src", Int fs.Vc.flow_src);
          ("dst", Int fs.Vc.flow_dst);
          ("sent", Int fs.Vc.sent);
          ("unacked", Int fs.Vc.unacked);
          ("delivered", Int fs.Vc.delivered);
        ])
      (Vc.flow_stats vc)
  in
  let delivered = Array.fold_left ( + ) 0 s.received in
  let exactly_once = verified s in
  let finish_us = Time.to_us s.finish in
  {
    fields =
      [
        ("messages_per_phase", Int messages);
        ("size", Int size);
        ("gateway", Int 1);
        ("restart_us", f2 (Time.to_us restart));
        ("delivered", Int delivered);
        ("handshakes", Int stats.Vc.handshakes);
        ("reroutes", Int stats.Vc.reroutes);
        ("reemitted", Int stats.Vc.reemitted);
        ("dup_drops", Int stats.Vc.dup_drops);
        ("exactly_once", Bool exactly_once);
        ("finish_us", f2 finish_us);
        ("suspicions", table suspicions);
        ("flows", table flows);
      ];
    line =
      Printf.sprintf
        "crash-restart: 2 x %d x %d B through gateway %d; gateway and \
         origin each die and restart (%.0f us) mid-stream -> %d delivered, \
         %d handshake(s), %d reroute(s), %d re-emitted, %d dup(s) dropped, \
         %d suspicion event(s), exactly-once=%s, finish=%.2f us\n"
        messages size 1 (Time.to_us restart) delivered stats.Vc.handshakes
        stats.Vc.reroutes stats.Vc.reemitted stats.Vc.dup_drops
        (List.length suspicions)
        (if exactly_once then "yes" else "NO")
        finish_us;
    gates =
      [
        ("crash-restart-exactly-once", exactly_once);
        ("crash-restart-handshake", stats.Vc.handshakes >= 1);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Live-topology scenarios: the redundant-gateway world of the failover
   run on an {!elastic} vchannel, so ranks drain out of and join back
   into the session while traffic flows. *)

let health_name h = Format.asprintf "%a" Madeleine.Iface.pp_health h

let epoch_of m = Madeleine.Topology.epoch (Mb.topology m)

(* Does any member rank's sentinel still probe [rank]? *)
let some_sentinel_watches vc ~ranks ~rank =
  List.exists
    (fun r ->
      r <> rank
      &&
      match Vc.sentinel vc ~rank:r with
      | Some s -> List.mem rank (Madeleine.Sentinel.watched s)
      | None -> false)
    ranks

let rolling_restart_run ~seed ~size ~messages =
  let w = world ~seed two_gateways ~vchannel:elastic in
  let engine, faults, vc = parts w and m = membership w in
  let partitioned = ref false in
  let phase2_go = ref false in
  let rolled = ref [] in
  let epoch_start = epoch_of m in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let other_gw = if gw = 1 then 2 else 1 in
  let s =
    stream engine vc ~tag:29 ~src:0 ~dst:3 ~size ~messages:(2 * messages)
      (* The origin is crashed by the controller between phases; the
         paused sender models the restarted process resuming the
         stream. *)
      ~pause:(messages, fun () -> !phase2_go)
      ()
  in
  Engine.spawn engine ~name:"rr-controller" (fun () ->
      let restart_of node =
        let before = Faults.epoch faults node in
        Faults.crash_now faults ~node ~restart_after:(Time.us 2_000.0) ();
        wait_until engine (fun () -> Faults.epoch faults node > before)
      in
      let roll rank =
        (match Mb.drain m ~rank with
        | () -> ()
        | exception Vc.Partitioned _ -> partitioned := true);
        restart_of rank;
        (match Mb.join m ~rank with
        | (_ : int) -> ()
        | exception Vc.Partitioned _ -> partitioned := true);
        rolled := !rolled @ [ rank ]
      in
      wait_until engine (fun () -> s.count >= 1);
      (* The spare gateway first (no route impact), then the on-route
         gateway — the 0 -> 3 flow must reroute mid-stream. *)
      roll other_gw;
      roll gw;
      (* The receiver drains between phases, once its journal is
         covered by cumulative acks. *)
      wait_until engine (fun () -> s.count >= messages);
      roll 3;
      (* The coordinator cannot drain itself: a crash-epoch restart,
         repaired by the session handshake, stands in. *)
      restart_of 0;
      rolled := !rolled @ [ 0 ];
      phase2_go := true);
  Engine.run engine;
  let stats = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  let topo = Mb.topology_stats m in
  let queues = Vc.queue_stats vc in
  let bounded = bounded_queues queues in
  let delivered = Array.fold_left ( + ) 0 s.received in
  let dup_deliveries =
    Array.fold_left (fun acc n -> acc + max 0 (n - 1)) 0 s.received
  in
  let exactly_once = verified s in
  let partitioned = !partitioned || s.partitioned in
  let finish_us = Time.to_us s.finish in
  let epoch_final = topo.Mb.topo_epoch in
  let joins = topo.Mb.topo_joins and drains = topo.Mb.topo_drains in
  {
    fields =
      [
        ("messages_per_phase", Int messages);
        ("size", Int size);
        ("restarted", int_list !rolled);
        ("epoch_start", Int epoch_start);
        ("epoch_final", Int epoch_final);
        ("joins", Int joins);
        ("drains", Int drains);
        ("delivered", Int delivered);
        ("dup_deliveries", Int dup_deliveries);
        ("reroutes", Int stats.Vc.reroutes);
        ("reemitted", Int stats.Vc.reemitted);
        ("dup_drops", Int stats.Vc.dup_drops);
        ("handshakes", Int stats.Vc.handshakes);
        ("partitioned", Bool partitioned);
        ("exactly_once", Bool exactly_once);
        ("bounded", Bool bounded);
        ("finish_us", f2 finish_us);
        ("queues", queue_table queues);
      ];
    line =
      Printf.sprintf
        "rolling-restart: 2 x %d x %d B while every rank restarts \
         (order [%s]); epoch %d -> %d (%d join(s), %d drain(s)), \
         %d delivered (%d dup), %d reroute(s), %d re-emitted, \
         %d handshake(s), partitioned=%s, exactly-once=%s, bounded=%s, \
         finish=%.2f us\n"
        messages size (ints !rolled) epoch_start epoch_final joins drains
        delivered dup_deliveries stats.Vc.reroutes stats.Vc.reemitted
        stats.Vc.handshakes
        (if partitioned then "YES" else "no")
        (if exactly_once then "yes" else "NO")
        (if bounded then "yes" else "NO")
        finish_us;
    gates =
      [
        ("rolling-restart-exactly-once", exactly_once);
        ( "rolling-restart-no-dup-deliveries",
          dup_deliveries = 0 && delivered = 2 * messages );
        ("rolling-restart-no-partition", not partitioned);
        ("rolling-restart-queues-bounded", bounded);
        ( "rolling-restart-epochs-advanced",
          joins >= 3 && drains >= 3 && epoch_final >= epoch_start + 6 );
      ];
  }

(* Join- and drain-under-load share one shape, told apart by [op];
   [routable] means "reachable" for a join and "off every route" for a
   drain, and [settled] is the op's own end-state gate. *)
let elastic_result ~op ~messages ~size ~rank ~epoch ~routable ~status
    ~watched ~partitioned ~intact ~finish ~settled =
  let name = op ^ "-under-load" and finish_us = Time.to_us finish in
  {
    fields =
      [
        ("op", Str op);
        ("messages", Int messages);
        ("size", Int size);
        ("rank", Int rank);
        ("epoch_final", Int epoch);
        ("routable", Bool routable);
        ("status", Str status);
        ("watched", Bool watched);
        ("partitioned", Bool partitioned);
        ("intact", Bool intact);
        ("finish_us", f2 finish_us);
      ];
    line =
      Printf.sprintf
        "%s: %d x %d B; rank %d %sed mid-sweep -> epoch %d, \
         routable-as-expected=%s, status=%s, watched=%s, partitioned=%s, \
         intact=%s, finish=%.2f us\n"
        name messages size rank op epoch
        (if routable then "yes" else "NO")
        status
        (if watched then "yes" else "no")
        (if partitioned then "YES" else "no")
        (if intact then "yes" else "NO")
        finish_us;
    gates = [ (name ^ "-no-partition", (not partitioned) && intact); settled ];
  }

let join_load_run ~seed ~size ~messages =
  let w = world ~seed two_gateways ~vchannel:elastic in
  let engine, _faults, vc = parts w and m = membership w in
  let partitioned = ref false in
  let joined = ref false in
  (* Background load 0 -> 1 runs across the epoch swap. *)
  let bg = stream engine vc ~tag:400 ~src:0 ~dst:1 ~size ~messages () in
  (* Once the joiner is routable, a fresh flow targets it. *)
  let fg =
    stream engine vc ~tag:1400 ~src:0 ~dst:3 ~size ~messages
      ~start:(fun () -> !joined)
      ()
  in
  Engine.spawn engine ~name:"jl-controller" (fun () ->
      (* Rank 3 leaves before any traffic exists, then rejoins while the
         background stream is mid-flight. *)
      Mb.drain m ~rank:3;
      while bg.count < max 1 (messages / 2) do
        Engine.sleep (Time.us 100.0)
      done;
      (match Mb.join m ~rank:3 with
      | (_ : int) -> ()
      | exception Vc.Partitioned _ -> partitioned := true);
      joined := true);
  Engine.run engine;
  let routable =
    match Vc.route_via vc ~src:0 ~dst:3 with
    | _ :: _ -> true
    | [] -> false
    | exception _ -> false
  in
  let status = health_name (Vc.peer_status vc ~src:0 ~dst:3) in
  let watched = some_sentinel_watches vc ~ranks:[ 0; 1; 2 ] ~rank:3 in
  elastic_result ~op:"join" ~messages ~size ~rank:3 ~epoch:(epoch_of m)
    ~routable ~status ~watched
    ~partitioned:(!partitioned || bg.partitioned || fg.partitioned)
    ~intact:(verified bg && verified fg) ~finish:fg.finish
    ~settled:
      ("join-under-load-routable", routable && status = "up" && watched)

let drain_load_run ~seed ~size ~messages =
  let w = world ~seed two_gateways ~vchannel:elastic in
  let engine, _faults, vc = parts w and m = membership w in
  let partitioned = ref false in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let s = stream engine vc ~tag:31 ~src:0 ~dst:3 ~size ~messages () in
  Engine.spawn engine ~name:"dl-controller" (fun () ->
      (* The on-route gateway drains mid-stream: the 0 -> 3 flow must
         reroute through the spare with no Partitioned. *)
      wait_until engine (fun () -> s.count >= 1);
      match Mb.drain m ~rank:gw with
      | () -> ()
      | exception Vc.Partitioned _ -> partitioned := true);
  Engine.run engine;
  let off_route =
    match Vc.route_via vc ~src:0 ~dst:3 with
    | hops -> not (List.mem gw hops)
    | exception _ -> false
  in
  let status = health_name (Vc.peer_status vc ~src:0 ~dst:gw) in
  let watched =
    some_sentinel_watches vc
      ~ranks:(List.filter (fun r -> r <> gw) [ 0; 1; 2; 3 ])
      ~rank:gw
  in
  elastic_result ~op:"drain" ~messages ~size ~rank:gw ~epoch:(epoch_of m)
    ~routable:off_route ~status ~watched
    ~partitioned:(!partitioned || s.partitioned)
    ~intact:(verified s) ~finish:s.finish
    ~settled:
      ( "drain-under-load-forgotten",
        off_route && status = "departed" && not watched )

(* ------------------------------------------------------------------ *)
(* Partition chaos: four ranks on one Ethernet segment with the
   coordinator seat quorum-elected, cuts injected at the fault plane.
   The gates are the paper-grade partition invariants: at most one
   coordinator ever commits an epoch, the majority side keeps its
   goodput during the cut, the minority surfaces typed errors instead
   of hanging, and post-heal delivery is exactly-once. *)

(* Sentinel probing is activity-gated; the streams pause during a cut,
   so keep every detector's grace window open explicitly. *)
let spawn_probe_loop engine vc ~stop =
  Engine.spawn engine ~name:"pt-prober" (fun () ->
      while not !stop do
        List.iter
          (fun r ->
            match Vc.sentinel vc ~rank:r with
            | Some s -> Madeleine.Sentinel.touch s
            | None -> ())
          (Vc.ranks vc);
        Engine.sleep (Time.us 400.0)
      done)

(* The four hosts with the coordinator seat quorum-elected, and the
   flag that stops their prober. *)
let partition_world ~seed =
  let w = world ~seed four_hosts ~vchannel:(elastic ^ " election=on") in
  let engine, faults, vc = parts w in
  let stop = ref false in
  spawn_probe_loop engine vc ~stop;
  (engine, faults, vc, membership w, stop)

let members_of m = Madeleine.Topology.ranks (Mb.topology m)

let commit_epochs_unique (s : Mb.election_stats) =
  let epochs = List.map fst s.Mb.commits in
  List.sort_uniq compare epochs = List.sort compare epochs

(* The shared tail of the partition workloads: the election audit and
   the common gates, plus each workload's own seat/flap gates. *)
let partition_result vc m ~workload:w ~messages ~size ~cycles
    ~coordinator_before ~cut_delivered ~minority_typed ~exactly_once ~finish
    =
  let stats = Mb.election_stats m in
  let rel = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  let coordinator_after = Mb.coordinator m in
  let elections = stats.Mb.elections in
  let epochs_unique = commit_epochs_unique stats in
  let latency_us = stats.Mb.last_latency_us in
  let pending = stats.Mb.pending in
  let members = members_of m in
  let finish_us = Time.to_us finish in
  {
    fields =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("cycles", Int cycles);
        ("coordinator_before", Int coordinator_before);
        ("coordinator_after", Int coordinator_after);
        ("elections", Int elections);
        ("epochs_unique", Bool epochs_unique);
        ("reelect_latency_us", f2 latency_us);
        ("cut_delivered", Int cut_delivered);
        ("minority_typed", Bool minority_typed);
        ("pending_after", Int pending);
        ("members_final", int_list members);
        ("reemitted", Int rel.Vc.reemitted);
        ("exactly_once", Bool exactly_once);
        ("finish_us", f2 finish_us);
      ];
    line =
      Printf.sprintf
        "%s: %d x %d B over %d cut/heal cycle(s); coordinator %d -> %d \
         (%d election(s), epochs-unique=%s, last re-election %.2f us), \
         %d delivered mid-cut, minority-typed=%s, pending=%d, members=[%s], \
         %d re-emitted, exactly-once=%s, finish=%.2f us\n"
        w messages size cycles coordinator_before coordinator_after elections
        (if epochs_unique then "yes" else "NO")
        latency_us cut_delivered
        (if minority_typed then "yes" else "NO")
        pending (ints members) rel.Vc.reemitted
        (if exactly_once then "yes" else "NO")
        finish_us;
    gates =
      [
        (w ^ ": at most one coordinator committed per epoch", epochs_unique);
        (w ^ ": majority goodput continued during the cut", cut_delivered > 0);
        (w ^ ": minority surfaced typed errors, never hung", minority_typed);
        (w ^ ": no intent left parked after the heal", pending = 0);
        (w ^ ": post-heal delivery exactly-once, bit-identical", exactly_once);
      ]
      @
      match w with
      | "partition-majority" ->
          [
            ( w ^ ": coordinator seat never moved",
              coordinator_after = coordinator_before );
            (w ^ ": heal replayed the parked join", members = [ 0; 1; 2; 3 ]);
          ]
      | "coordinator-loss" ->
          [
            ( w ^ ": majority elected a replacement coordinator",
              elections >= 1
              && coordinator_after >= 0
              && coordinator_after <> coordinator_before );
            (w ^ ": re-election latency measured", latency_us > 0.0);
          ]
      | _ ->
          [
            ( w ^ ": every flap forced a committed re-election",
              elections >= cycles );
            ( w ^ ": membership survived the flapping",
              members = [ 0; 1; 2; 3 ] );
          ];
  }

(* The majority keeps working while a non-member host is cut off: rank 3
   drains cleanly, the cut isolates its (now outsider) host, a
   mid-stream 0 -> 1 flow keeps delivering, the cut-side join parks with
   the typed [No_quorum], and the heal replays it — after which a fresh
   0 -> 3 stream must land exactly-once over the revived paths. *)
let partition_majority_run ~seed ~size ~messages =
  let engine, faults, vc, m, stop = partition_world ~seed in
  let coordinator_before = Mb.coordinator m in
  let cut_active = ref false in
  let cut_delivered = ref 0 in
  let minority_typed = ref false in
  let fg_gate = ref false in
  let finish = ref Time.zero in
  let bg =
    stream engine vc ~tag:500 ~src:0 ~dst:1 ~size
      ~messages:(2 * messages)
      ~on_delivery:(fun _ -> if !cut_active then incr cut_delivered)
      ()
  in
  let fg =
    stream engine vc ~tag:900 ~src:0 ~dst:3 ~size ~messages
      ~start:(fun () -> !fg_gate)
      ~retry:true ()
  in
  Engine.spawn engine ~name:"pt-controller" (fun () ->
      (* Rank 3 leaves cleanly before any cut exists. *)
      (match Mb.drain m ~rank:3 with
      | () -> ()
      | exception (Vc.Partitioned _ | Mb.No_quorum _) -> ());
      wait_until engine (fun () -> bg.count >= messages);
      Faults.partition faults ~fabric:"eth" [ 3 ] [ 0; 1; 2 ];
      cut_active := true;
      Engine.sleep (Time.ms 10.0);
      (* The cut-side host asks back in: its request cannot reach the
         coordinator, so the intent parks with the typed error. *)
      (match Mb.join m ~rank:3 with
      | (_ : int) -> ()
      | exception Mb.No_quorum _ -> minority_typed := true
      | exception Vc.Partitioned _ -> ());
      wait_until engine (fun () -> bg.count >= 2 * messages);
      Faults.heal faults ~fabric:"eth";
      cut_active := false;
      (* The replay must re-admit rank 3 before the fresh stream can
         target it. *)
      wait_until engine (fun () -> List.mem 3 (members_of m));
      fg_gate := true;
      wait_until engine ~deadline_us:500_000.0 (fun () -> verified fg);
      Engine.sleep (Time.ms 5.0);
      finish := Engine.now engine;
      stop := true);
  Engine.run engine;
  partition_result vc m ~workload:"partition-majority" ~messages ~size
    ~cycles:1 ~coordinator_before ~cut_delivered:!cut_delivered
    ~minority_typed:!minority_typed ~exactly_once:(verified bg && verified fg)
    ~finish:!finish

(* The coordinator itself is cut off: the majority elects its lowest
   member and keeps its goodput, the isolated old seat sees typed
   [Partitioned] flows and no quorum, and after the heal it rejoins as
   a plain member — a fresh stream from it must land exactly-once. *)
let coordinator_loss_run ~seed ~size ~messages =
  let engine, faults, vc, m, stop = partition_world ~seed in
  let coordinator_before = Mb.coordinator m in
  let cut_active = ref false in
  let cut_delivered = ref 0 in
  let minority_typed = ref false in
  let fg_gate = ref false in
  let finish = ref Time.zero in
  let bg =
    stream engine vc ~tag:600 ~src:1 ~dst:3 ~size
      ~messages:(2 * messages)
      ~on_delivery:(fun _ -> if !cut_active then incr cut_delivered)
      ()
  in
  let fg =
    stream engine vc ~tag:950 ~src:0 ~dst:3 ~size ~messages
      ~start:(fun () -> !fg_gate)
      ~retry:true ()
  in
  Engine.spawn engine ~name:"pt-controller" (fun () ->
      wait_until engine (fun () -> bg.count >= messages);
      Faults.partition faults ~fabric:"eth" [ coordinator_before ]
        (List.filter (fun r -> r <> coordinator_before) [ 0; 1; 2; 3 ]);
      cut_active := true;
      (* The majority stands its lowest member for the vacated seat. *)
      wait_until engine (fun () -> Mb.coordinator m <> coordinator_before);
      (* The deposed side: once its own detectors caught up, it has no
         quorum and a new flow fails with the typed error immediately
         instead of hanging on re-emission. *)
      wait_until engine (fun () ->
          not (Vc.has_quorum vc ~viewer:coordinator_before));
      (minority_typed :=
         (not (Vc.has_quorum vc ~viewer:coordinator_before))
         &&
         match Vc.begin_packing vc ~me:coordinator_before ~remote:1 with
         | exception Vc.Partitioned _ -> true
         | _oc -> false);
      wait_until engine (fun () -> bg.count >= 2 * messages);
      Faults.heal faults ~fabric:"eth";
      cut_active := false;
      fg_gate := true;
      wait_until engine ~deadline_us:500_000.0 (fun () -> verified fg);
      Engine.sleep (Time.ms 5.0);
      finish := Engine.now engine;
      stop := true);
  Engine.run engine;
  partition_result vc m ~workload:"coordinator-loss" ~messages ~size
    ~cycles:1 ~coordinator_before ~cut_delivered:!cut_delivered
    ~minority_typed:!minority_typed ~exactly_once:(verified bg && verified fg)
    ~finish:!finish

(* Repeated cut/heal cycles, each isolating whoever holds the seat: the
   coordinator flip-flops between the two lowest ranks, every cycle
   commits exactly one new epoch (the audit trail stays duplicate-free),
   and a stream between two never-cut ranks keeps delivering through
   the churn. *)
let partition_flapping_run ~seed ~size ~messages ~cycles =
  let engine, faults, vc, m, stop = partition_world ~seed in
  let coordinator_before = Mb.coordinator m in
  let cut_active = ref false in
  let cut_delivered = ref 0 in
  let bg_done = ref false in
  let minority_typed = ref true in
  let finish = ref Time.zero in
  let total = messages * cycles in
  let bg =
    stream engine vc ~tag:700 ~src:2 ~dst:3 ~size ~messages:total
      ~on_delivery:(fun _ -> if !cut_active then incr cut_delivered)
      ()
  in
  Engine.spawn engine ~name:"pt-bg-watch" (fun () ->
      wait_until engine ~deadline_us:1_000_000.0 (fun () -> verified bg);
      bg_done := true);
  Engine.spawn engine ~name:"pt-controller" (fun () ->
      for _ = 1 to cycles do
        let seat = Mb.coordinator m in
        Faults.partition faults ~fabric:"eth" [ seat ]
          (List.filter (fun r -> r <> seat) [ 0; 1; 2; 3 ]);
        cut_active := true;
        wait_until engine (fun () -> Mb.coordinator m <> seat);
        (* The isolated old seat must know it lost quorum. *)
        if Vc.has_quorum vc ~viewer:seat then minority_typed := false;
        Faults.heal faults ~fabric:"eth";
        cut_active := false;
        (* Let the suspicion drain before the next flap, so each cycle
           starts from a fully trusted membership. *)
        Engine.sleep (Time.ms 15.0)
      done;
      wait_until engine ~deadline_us:1_000_000.0 (fun () -> !bg_done);
      Engine.sleep (Time.ms 5.0);
      finish := Engine.now engine;
      stop := true);
  Engine.run engine;
  partition_result vc m ~workload:"partition-flapping" ~messages:total ~size
    ~cycles ~coordinator_before ~cut_delivered:!cut_delivered
    ~minority_typed:!minority_typed ~exactly_once:(verified bg)
    ~finish:!finish

(* ------------------------------------------------------------------ *)
(* Overload: one reliable credit-armed vchannel over a single TCP
   segment; the receiving host's drain rate is capped at 1/100 of the
   clean stream's. Run once clean (no cap) for the mismatch baseline,
   once throttled for the backpressure assertions. *)

let overload_one ~seed ~size ~messages ~credits ~mtu ~rx_cap =
  let w =
    world ~seed eth
      ~faults:(Option.to_list (Option.map (slow ~net:"eth" ~node:1) rx_cap))
      ~vchannel:
        (Printf.sprintf "mtu=%d credits=%d reliable=true" mtu credits)
  in
  let engine, _faults, vc = parts w in
  let s = stream engine vc ~tag:300 ~src:0 ~dst:1 ~size ~messages () in
  Engine.run engine;
  let rate = Time.rate_mb_s ~bytes_count:(size * messages) s.finish in
  (rate, vc, Cf.tcp_net w "eth", verified s, s.finish)

let overload_run ~seed ~size ~messages ~credits ~mtu ~rx_cap_mb_s =
  let clean_mb_s, _, _, clean_ok, _ =
    overload_one ~seed ~size ~messages ~credits ~mtu ~rx_cap:None
  in
  let throttled_mb_s, vc, net, ok, finish =
    overload_one ~seed ~size ~messages ~credits ~mtu
      ~rx_cap:(Some rx_cap_mb_s)
  in
  let cs =
    match Vc.credit_stats vc with Some s -> s | None -> assert false
  in
  let queues = Vc.queue_stats vc in
  let inbox_peak, sendq_peak = Tcpnet.queue_peaks net in
  let intact = ok && clean_ok and bounded = bounded_queues queues in
  let mismatch =
    if throttled_mb_s > 0.0 then clean_mb_s /. throttled_mb_s else 0.0
  in
  {
    fields =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("credits", Int credits);
        ("mtu", Int mtu);
        ("rx_cap_mb_s", f3 rx_cap_mb_s);
        ("clean_mb_s", f2 clean_mb_s);
        ("throttled_mb_s", f3 throttled_mb_s);
        ("stalls", Int cs.Vc.stalls);
        ("grants", Int cs.Vc.grants);
        ("probes", Int cs.Vc.probes);
        ("inbox_peak_bytes", Int inbox_peak);
        ("sendq_peak_frames", Int sendq_peak);
        ("intact", Bool intact);
        ("bounded", Bool bounded);
        ("finish_us", f2 (Time.to_us finish));
        ("queues", queue_table queues);
      ];
    line =
      Printf.sprintf
        "overload: %d x %d B, credits=%d, receiver capped at %.2f MB/s \
         (clean %.2f MB/s -> %.1f:1 mismatch): delivered %.3f MB/s, \
         %d stall(s), %d grant(s), %d probe(s), queues bounded=%s, intact=%s\n"
        messages size credits rx_cap_mb_s clean_mb_s mismatch throttled_mb_s
        cs.Vc.stalls cs.Vc.grants cs.Vc.probes
        (if bounded then "yes" else "NO")
        (if intact then "yes" else "NO")
      ^ String.concat ""
          (List.map
             (fun q ->
               Printf.sprintf "  queue %-18s node=%d peer=%d peak=%d bound=%s\n"
                 q.Vc.q_point q.Vc.q_node q.Vc.q_peer q.Vc.q_peak
                 (match q.Vc.q_bound with
                 | Some v -> string_of_int v
                 | None -> "-"))
             queues);
    gates =
      [
        ("overload-intact", intact);
        ("overload-queues-bounded", bounded);
        ("overload-sender-stalled", cs.Vc.stalls > 0 && cs.Vc.grants > 0);
        ("overload-rate-mismatch", throttled_mb_s > 0.0 && mismatch >= 10.0);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Slow gateway: 0 -> 1 (gateway) -> 2 across two Ethernet segments;
   rank 2's drain on the egress segment is capped while the ingress
   segment runs clean. Credits are generous, so the gateway's bounded
   forwarding pool is the active constraint. *)

let slow_gateway_run ~seed ~size ~messages ~credits ~gw_pool ~rx_cap_mb_s =
  let engine, _faults, vc =
    parts
      (world ~seed one_gateway
         ~faults:[ slow ~net:"ethB" ~node:2 rx_cap_mb_s ]
         ~vchannel:
           (Printf.sprintf "mtu=4096 credits=%d gw_pool=%d reliable=true"
              credits gw_pool))
  in
  let reported = ref false in
  let s =
    stream engine vc ~tag:400 ~src:0 ~dst:2 ~size ~messages
      ~on_delivery:(fun _ ->
        (* Sample the flow health mid-stream: while the pool is pinned
           the gateway must be visible as Overloaded end to end. *)
        if Vc.peer_status vc ~src:0 ~dst:2 = Madeleine.Iface.Overloaded then
          reported := true)
      ()
  in
  Engine.run engine;
  let sentinel_saw_overload =
    List.exists
      (fun (_, ev) -> ev.Madeleine.Sentinel.ev_to = Madeleine.Sentinel.Overloaded)
      (Vc.suspicion_timeline vc)
  in
  let queues = Vc.queue_stats vc in
  let ingress_mb_s = Time.rate_mb_s ~bytes_count:(size * messages) s.finish in
  let events = Vc.overload_events vc in
  let reported = !reported || sentinel_saw_overload in
  let cleared = Vc.overloaded vc = [] in
  let bounded = bounded_queues queues in
  let intact = verified s in
  {
    fields =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("credits", Int credits);
        ("gw_pool", Int gw_pool);
        ("rx_cap_mb_s", f3 rx_cap_mb_s);
        ("ingress_mb_s", f3 ingress_mb_s);
        ("overload_events", Int events);
        ("overload_reported", Bool reported);
        ("overload_cleared", Bool cleared);
        ("intact", Bool intact);
        ("bounded", Bool bounded);
        ("finish_us", f2 (Time.to_us s.finish));
        ("queues", queue_table queues);
      ];
    line =
      Printf.sprintf
        "slow-gateway: %d x %d B via a pool of %d, egress capped at \
         %.2f MB/s: ingress throttled to %.3f MB/s, %d overload event(s) \
         (reported=%s, cleared=%s), queues bounded=%s, intact=%s\n"
        messages size gw_pool rx_cap_mb_s ingress_mb_s events
        (if reported then "yes" else "NO")
        (if cleared then "yes" else "NO")
        (if bounded then "yes" else "NO")
        (if intact then "yes" else "NO");
    gates =
      [
        ("slow-gateway-intact", intact);
        ("slow-gateway-queues-bounded", bounded);
        ("slow-gateway-overload-reported", events >= 1 && reported);
        ("slow-gateway-overload-cleared", cleared);
        ( "slow-gateway-ingress-throttled",
          ingress_mb_s <= 2.0 *. rx_cap_mb_s
          && ingress_mb_s >= 0.2 *. rx_cap_mb_s );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Scheduled aggregation under loss: many concurrent logical flows of
   small messages cross a gateway on a reliable sched=aggreg vchannel
   while both segments drop frames. Aggregates ride the TCP
   selective-repeat window as single frames, so TCP retransmission plus
   the vchannel's sequence checks must still deliver every flow
   bit-identical and in per-flow order — and the scheduler must
   actually have merged something, or the scenario is not testing
   aggregation at all. *)

let sched_aggreg_run ~seed ~flows ~messages ~size ~drop =
  let engine, _faults, vc =
    parts
      (world ~seed one_gateway
         ~faults:(link_faults "drop" drop one_gateway)
         ~vchannel:"mtu=4096 reliable=true sched=aggreg")
  in
  let streams =
    List.init flows (fun i ->
        let flow = i + 1 in
        stream engine vc ~tag:(600 + (flow * 1000)) ~src:0 ~dst:2 ~size
          ~messages ~flow ())
  in
  Engine.run engine;
  let intact = List.for_all verified streams in
  let finish =
    List.fold_left
      (fun t s -> if Time.( < ) t s.finish then s.finish else t)
      Time.zero streams
  in
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  let rs = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  let module S = Madeleine.Sched in
  let drop_pct = drop *. 100.0 and finish_us = Time.to_us finish in
  {
    fields =
      [
        ("flows", Int flows);
        ("messages_per_flow", Int messages);
        ("size", Int size);
        ("drop_pct", f2 drop_pct);
        ("merged", Int ss.S.sched_merged);
        ("aggregates", Int ss.S.sched_aggregates);
        ("mean_frames", f2 ss.S.sched_mean_frames);
        ("flush_full", Int ss.S.sched_flush_full);
        ("flush_deadline", Int ss.S.sched_flush_deadline);
        ("flush_flow", Int ss.S.sched_flush_flow);
        ("reemitted", Int rs.Vc.reemitted);
        ("dup_drops", Int rs.Vc.dup_drops);
        ("intact", Bool intact);
        ("finish_us", f2 finish_us);
      ];
    line =
      Printf.sprintf
        "sched-aggreg: %d flows x %d x %d B at %.1f%% drop: %d frame(s) \
         merged into %d aggregate(s) (%.1f frames each; full=%d \
         deadline=%d flow=%d), %d re-emitted, %d dup(s) dropped, \
         intact=%s, finish=%.2f us\n"
        flows messages size drop_pct ss.S.sched_merged ss.S.sched_aggregates
        ss.S.sched_mean_frames ss.S.sched_flush_full ss.S.sched_flush_deadline
        ss.S.sched_flush_flow rs.Vc.reemitted rs.Vc.dup_drops
        (if intact then "yes" else "NO")
        finish_us;
    gates =
      [
        ("sched-aggreg-intact", intact);
        ("sched-aggreg-merged", ss.S.sched_merged > 0);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Collectives chaos: the recovery matrix of the {!Madeleine.Collectives}
   layer. Three fault workloads (a rank crash mid-barrier with a
   restart re-join, an Overloaded gateway on the tree spine, a rolling
   restart during a 64-rank allreduce) plus the scaling measurement
   that contrasts the topology-aware tree against the flat star at
   64-1024 ranks — the log-vs-linear headline figure. Everything below
   is a pure function of the seed, like the rest of the harness. *)

module Coll = Madeleine.Collectives

(* The shared shape of the collectives fault workloads; which gates
   apply depends on the workload: the spine run must route around the
   overloaded gateway, the crash runs must repair and answer a late
   contribution from the journal. *)
let coll_result ~workload:w ~ranks ~expected ~completed ~failed ~agree
    ~value_ok ~rejoined ~spine_ok (st : Coll.stats) ~finish =
  let tag s = w ^ "-" ^ s and finish_us = Time.to_us finish in
  {
    fields =
      [
        ("ranks", Int ranks);
        ("expected", Int expected);
        ("completed", Int completed);
        ("failed", Int failed);
        ("agree", Bool agree);
        ("value_ok", Bool value_ok);
        ("covered", int_list st.Coll.last_covered);
        ("rejoined", Bool rejoined);
        ("spine_ok", Bool spine_ok);
        ("repairs", Int st.Coll.repairs);
        ("packets", Int st.Coll.packets);
        ("combined", Int st.Coll.combined);
        ("root_contribs", Int st.Coll.root_contribs);
        ("dup_suppressed", Int st.Coll.dup_suppressed);
        ("finish_us", f2 finish_us);
      ];
    line =
      Printf.sprintf
        "%s: %d rank(s), %d/%d call(s) completed (%d failed typed); \
         agree=%s, value-correct=%s, covered=[%s], repairs=%d, \
         combined=%d, root-contribs=%d, dup-suppressed=%d, \
         journal-answers=%s, spine-ok=%s, packets=%d, finish=%.2f us\n"
        w ranks completed expected failed
        (if agree then "yes" else "NO")
        (if value_ok then "yes" else "NO")
        (ints st.Coll.last_covered) st.Coll.repairs st.Coll.combined
        st.Coll.root_contribs st.Coll.dup_suppressed
        (if rejoined then "yes" else "no")
        (if spine_ok then "yes" else "NO")
        st.Coll.packets finish_us;
    gates =
      [
        (tag "completed", completed = expected && failed = 0);
        (tag "agree", agree);
        (tag "exactly-once", value_ok && st.Coll.dup_suppressed >= 0);
      ]
      @
      if w = "coll-spine-overload" then
        [ (tag "spine-avoids-overloaded", spine_ok) ]
      else
        [
          (tag "rejoined-from-journal", rejoined);
          (tag "repaired", st.Coll.repairs >= 1);
        ];
  }

(* 64-bit little-endian sum: associative, commutative, and a different
   result for every distinct subset of contributors — so a value match
   against the covered set doubles as the no-double-count check. *)
let coll_sum a b =
  let out = Bytes.create 8 in
  Bytes.set_int64_le out 0
    (Int64.add (Bytes.get_int64_le a 0) (Bytes.get_int64_le b 0));
  out

let coll_contrib r =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (r + 1));
  b

let coll_expected_sum covered =
  List.fold_left (fun acc r -> Int64.add acc (Int64.of_int (r + 1))) 0L covered

let coll_agree_and_value results covered =
  let vals = Hashtbl.fold (fun _ v acc -> v :: acc) results [] in
  match vals with
  | [] -> (false, false)
  | v :: rest ->
      ( List.for_all (Bytes.equal v) rest,
        Bytes.length v = 8
        && Bytes.get_int64_le v 0 = coll_expected_sum covered )

(* Crash mid-barrier, restart, re-join. Rank 3 holds the first barrier
   open (everyone else is parked waiting for its contribution when the
   controller crashes it), the survivors repair and complete among
   themselves, and the restarted rank re-enters the same collective and
   is answered from the decision journal — then the same cast runs an
   allreduce whose value proves nobody was counted twice. *)
let coll_crash_barrier_run ~seed =
  let engine, faults, vc =
    parts (world ~seed two_gateways ~vchannel:elastic)
  in
  let coll = Coll.create ~fanout:2 vc in
  let ranks = Vc.ranks vc in
  let n = List.length ranks in
  let barriers = ref 0 and allreds = ref 0 and failed = ref 0 in
  let results = Hashtbl.create 8 in
  let finish = ref Time.zero in
  List.iter
    (fun r ->
      Engine.spawn engine ~name:(Printf.sprintf "coll-cb-%d" r) (fun () ->
          Engine.sleep (Time.ms (if r = 3 then 6.0 else 1.0));
          (try
             Coll.barrier coll ~me:r;
             incr barriers
           with Coll.Collective_failed _ -> incr failed);
          (try
             let v = Coll.allreduce coll ~me:r ~op:coll_sum (coll_contrib r) in
             Hashtbl.replace results r v;
             incr allreds
           with Coll.Collective_failed _ -> incr failed);
          finish := Engine.now engine))
    ranks;
  Engine.spawn engine ~name:"coll-cb-controller" (fun () ->
      (* Ranks 0-2 are parked in the barrier waiting for rank 3's
         contribution; kill it under them, bring it back after the
         survivors have decided. *)
      Engine.sleep (Time.ms 3.0);
      Faults.crash_now faults ~node:3 ~restart_after:(Time.ms 5.0) ());
  Engine.run engine;
  let st = Coll.stats coll in
  let agree, value_ok = coll_agree_and_value results st.Coll.last_covered in
  coll_result ~workload:"coll-crash-barrier" ~ranks:n ~expected:(2 * n)
    ~completed:(!barriers + !allreds) ~failed:!failed ~agree ~value_ok
    ~rejoined:(st.Coll.journal_answers >= 1) ~spine_ok:true st ~finish:!finish

(* An Overloaded gateway on the tree spine: a background stream pins
   the on-route gateway's forwarding pool (the PR 5 watermark), the
   health-change hook bumps the repair generation, and the next tree
   hangs the far rank off the spare gateway instead — the barrier
   completes around the load instead of through it. *)
let coll_spine_overload_run ~seed ~size ~messages ~credits ~gw_pool
    ~rx_cap_mb_s =
  let engine, _faults, vc =
    parts
      (world ~seed two_gateways
         ~faults:[ slow ~net:"ethB" ~node:3 rx_cap_mb_s ]
         ~vchannel:
           (Printf.sprintf "mtu=4096 credits=%d gw_pool=%d reliable=true"
              credits gw_pool))
  in
  let coll = Coll.create ~fanout:2 vc in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let other_gw = if gw = 1 then 2 else 1 in
  let barriers = ref 0 and failed = ref 0 in
  let spine = ref [] and overloaded_at_sample = ref [] in
  let s = stream engine vc ~tag:500 ~src:0 ~dst:3 ~size ~messages () in
  Engine.spawn engine ~name:"coll-so-controller" (fun () ->
      wait_until engine (fun () -> Vc.overloaded vc <> []);
      overloaded_at_sample := Vc.overloaded vc;
      spine := Coll.tree_spine coll;
      List.iter
        (fun r ->
          Engine.spawn engine ~name:(Printf.sprintf "coll-so-%d" r)
            (fun () ->
              try
                Coll.barrier coll ~me:r;
                incr barriers
              with Coll.Collective_failed _ -> incr failed))
        (Vc.ranks vc));
  Engine.run engine;
  let st = Coll.stats coll in
  let spine_ok =
    List.mem gw !overloaded_at_sample
    && List.assoc_opt 3 !spine = Some other_gw
    && List.for_all
         (fun (_, parent) -> not (List.mem parent !overloaded_at_sample))
         !spine
  in
  coll_result ~workload:"coll-spine-overload" ~ranks:4 ~expected:4
    ~completed:!barriers ~failed:!failed ~agree:true ~value_ok:(verified s)
    ~rejoined:true ~spine_ok st ~finish:s.finish

(* The segments of a hierarchical cluster-of-clusters world: [clusters]
   leaf segments of [per] ranks each, bridged by a backbone segment of
   the gateway ranks (rank [k * per] of each cluster) — the shape the
   collectives tree is supposed to exploit. *)
let hierarchy ~clusters ~per =
  List.init clusters (fun k ->
      (Printf.sprintf "leaf%d" k, List.init per (fun i -> (k * per) + i)))
  @ [ ("backbone", List.init clusters (fun k -> k * per)) ]

(* Rolling restarts during one allreduce: a leaf rank and then a whole
   gateway (cutting its cluster off) crash and come back while the
   collective is held open. Every rank's call must return the same
   bytes, and the decided value must equal the sum over exactly the
   covered set — the no-double-count property under repair. *)
let coll_rolling_allreduce_run ~seed ~clusters ~per =
  let engine, faults, vc =
    parts
      (world ~seed (hierarchy ~clusters ~per)
         ~vchannel:"mtu=4096 reliable=true")
  in
  let coll = Coll.create ~fanout:4 vc in
  let n = clusters * per in
  let completed = ref 0 and failed = ref 0 in
  let results = Hashtbl.create n in
  let finish = ref Time.zero in
  List.iter
    (fun r ->
      Engine.spawn engine ~name:(Printf.sprintf "coll-ra-%d" r) (fun () ->
          (* Rank 1 holds the collective open until after the rolls, so
             both crashes land mid-allreduce. *)
          Engine.sleep (Time.ms (if r = 1 then 6.0 else 1.0));
          (try
             let v = Coll.allreduce coll ~me:r ~op:coll_sum (coll_contrib r) in
             Hashtbl.replace results r v;
             incr completed
           with Coll.Collective_failed _ -> incr failed);
          finish := Engine.now engine))
    (Vc.ranks vc);
  Engine.spawn engine ~name:"coll-ra-roller" (fun () ->
      Engine.sleep (Time.ms 2.0);
      Faults.crash_now faults ~node:(per + 1) ~restart_after:(Time.ms 3.0) ();
      Engine.sleep (Time.ms 1.0);
      (* The second roll takes out a gateway: its whole cluster drops
         off the tree until the restart, then re-joins through the
         decision journal. *)
      Faults.crash_now faults ~node:(2 * per) ~restart_after:(Time.ms 4.0) ());
  Engine.run engine;
  let st = Coll.stats coll in
  let agree, value_ok = coll_agree_and_value results st.Coll.last_covered in
  coll_result ~workload:"coll-rolling-allreduce" ~ranks:n ~expected:n
    ~completed:!completed ~failed:!failed ~agree ~value_ok
    ~rejoined:(st.Coll.journal_answers >= 1) ~spine_ok:true st ~finish:!finish

let coll_barrier_once ~seed ~clusters ~per ~algo ~fanout =
  (* Faultless worlds skip the sentinel plane entirely, which is what
     makes the 1024-rank scaling row affordable. *)
  let w =
    world ~seed ~faulty:false (hierarchy ~clusters ~per) ~vchannel:"mtu=4096"
  in
  let engine = Cf.engine w and vc = Cf.vchannel w "vc" in
  (* The world is faultless, so the repair patience is pure slack — but
     it must exceed the barrier itself or the participants declare a
     stall and abandon their partial aggregates mid-cascade. The flat
     baseline at 1024 ranks serializes every contribution through the
     backbone, so give it room. *)
  let coll = Coll.create ~algo ~fanout ~patience:(Time.ms 2000.0) vc in
  let finish = ref Time.zero in
  List.iter
    (fun r ->
      Engine.spawn engine ~name:(Printf.sprintf "coll-sc-%d" r) (fun () ->
          Engine.sleep (Time.ms 1.0);
          Coll.barrier coll ~me:r;
          finish := Engine.now engine))
    (Vc.ranks vc);
  Engine.run engine;
  (Time.to_us !finish -. 1000.0, Coll.stats coll)

(* The headline figure: one barrier over the hierarchical world, tree
   vs flat, at every requested scale. Latency is simulated time, so
   the rows are byte-identical for a given seed. The top-level fields
   describe the largest size, where the ratio gate binds. *)
let coll_scale_run ~seed ~fanout ~sizes =
  let measured =
    List.map
      (fun (clusters, per) ->
        let tree_us, tree =
          coll_barrier_once ~seed ~clusters ~per ~algo:Coll.Tree ~fanout
        in
        let flat_us, flat =
          coll_barrier_once ~seed ~clusters ~per ~algo:Coll.Flat ~fanout
        in
        (clusters * per, tree_us, tree, flat_us, flat))
      sizes
  in
  let ratio tree_us flat_us = flat_us /. Float.max 1e-9 tree_us in
  let log2_ceil n =
    let rec go k acc = if acc >= n then k else go (k + 1) (2 * acc) in
    go 0 1
  in
  let n, tree_us, tree, flat_us, flat =
    List.nth measured (List.length measured - 1)
  in
  let largest_ratio = ratio tree_us flat_us in
  let log_like =
    List.for_all
      (fun (n, _, tree, _, _) -> tree.Coll.last_depth <= 2 * log2_ceil n)
      measured
  in
  {
    fields =
      [
        ("fanout", Int fanout);
        ("ranks", Int n);
        ("tree_depth", Int tree.Coll.last_depth);
        ("tree_rounds", Int tree.Coll.last_rounds);
        ("tree_us", f2 tree_us);
        ("flat_us", f2 flat_us);
        ("ratio", f2 largest_ratio);
        ("tree_root_contribs", Int tree.Coll.root_contribs);
        ("flat_root_contribs", Int flat.Coll.root_contribs);
        ("log_like", Bool log_like);
        ( "rows",
          table
            (List.map
               (fun (n, tree_us, tree, flat_us, flat) ->
                 [
                   ("ranks", Int n);
                   ("depth", Int tree.Coll.last_depth);
                   ("rounds", Int tree.Coll.last_rounds);
                   ("tree_us", f2 tree_us);
                   ("tree_root_contribs", Int tree.Coll.root_contribs);
                   ("tree_packets", Int tree.Coll.packets);
                   ("flat_us", f2 flat_us);
                   ("flat_root_contribs", Int flat.Coll.root_contribs);
                   ("flat_packets", Int flat.Coll.packets);
                 ])
               measured) );
      ];
    line =
      Printf.sprintf
        "coll-scale (fanout %d): barrier tree-vs-flat, ratio %.2fx at \
         largest size, log-like=%s\n"
        fanout largest_ratio
        (if log_like then "yes" else "NO")
      ^ Printf.sprintf "  %6s %6s %7s %12s %12s %8s %11s %11s\n" "ranks"
          "depth" "rounds" "tree(us)" "flat(us)" "ratio" "tree-root"
          "flat-root"
      ^ String.concat ""
          (List.map
             (fun (n, tree_us, tree, flat_us, flat) ->
               Printf.sprintf "  %6d %6d %7d %12.2f %12.2f %7.2fx %11d %11d\n"
                 n tree.Coll.last_depth tree.Coll.last_rounds tree_us flat_us
                 (ratio tree_us flat_us) tree.Coll.root_contribs
                 flat.Coll.root_contribs)
             measured);
    gates =
      [
        ("coll-scale-tree-log-rounds", log_like);
        ("coll-scale-speedup", largest_ratio >= 4.0);
        ( "coll-scale-combining",
          List.for_all
            (fun (_, _, tree, _, flat) ->
              tree.Coll.root_contribs < flat.Coll.root_contribs)
            measured );
      ];
  }

(* ------------------------------------------------------------------ *)
(* The registry. Each workload's parameters live here and nowhere else;
   [quick] trims a workload to its CI size. *)

let workloads =
  let size = 16384 in
  let phases quick = if quick then 3 else 4 in
  let under_load quick = if quick then 4 else 6 in
  [
    {
      name = "pingpong-faults";
      doc =
        "verified TCP ping-pongs under a drop-rate x size sweep, \
         corruption, a link flap, reordering/duplication and a PCI stall, \
         one table row each";
      run = pingpong_faults;
    };
    {
      name = "failover";
      doc =
        "the first-hop gateway of a 0 -> 3 stream crashes mid-stream; the \
         rest arrives intact over the spare, and losing it too partitions";
      run = (fun ~seed ~quick:_ -> failover_run ~seed ~size ~messages:4);
    };
    {
      name = "goodput";
      doc =
        "selective repeat against stop-and-wait on one TCP stream at 1% \
         drop, with each run's drops and retransmissions";
      run =
        (fun ~seed ~quick ->
          goodput_run ~seed ~size:1024
            ~messages:(if quick then 256 else 512)
            ~window:8 ~drop:0.01);
    };
    {
      name = "crash-restart";
      doc =
        "the only gateway, then the origin, die and restart mid-stream; \
         delivery stays exactly-once";
      run =
        (fun ~seed ~quick ->
          crash_restart_run ~seed ~size ~messages:(phases quick));
    };
    {
      name = "overload";
      doc =
        "a ~100:1 producer/consumer rate mismatch must stall the sender on \
         its credits with every queue under its bound";
      run =
        (fun ~seed ~quick ->
          overload_run ~seed ~size
            ~messages:(if quick then 4 else 6)
            ~credits:8 ~mtu:4096 ~rx_cap_mb_s:0.11);
    };
    {
      name = "slow-gateway";
      doc =
        "a rate-capped egress behind a bounded gateway pool throttles \
         ingress hop by hop and reports Overloaded";
      run =
        (fun ~seed ~quick ->
          slow_gateway_run ~seed ~size
            ~messages:(if quick then 6 else 8)
            ~credits:32 ~gw_pool:2 ~rx_cap_mb_s:0.5);
    };
    {
      name = "sched-aggreg";
      doc =
        "many small-message flows aggregated by sched=aggreg across a \
         lossy gateway route, each delivered bit-identical in order";
      run =
        (fun ~seed ~quick ->
          sched_aggreg_run ~seed
            ~flows:(if quick then 16 else 32)
            ~messages:4 ~size:256 ~drop:0.01);
    };
    {
      name = "rolling-restart";
      doc =
        "every rank drains, restarts and rejoins under traffic; the \
         coordinator rides a crash-epoch restart";
      run =
        (fun ~seed ~quick ->
          rolling_restart_run ~seed ~size ~messages:(phases quick));
    };
    {
      name = "join-under-load";
      doc =
        "a rank joins mid-stream and becomes routable without quiescing \
         flows";
      run =
        (fun ~seed ~quick ->
          join_load_run ~seed ~size ~messages:(under_load quick));
    };
    {
      name = "drain-under-load";
      doc = "the on-route gateway drains mid-stream and the flow reroutes";
      run =
        (fun ~seed ~quick ->
          drain_load_run ~seed ~size ~messages:(under_load quick));
    };
    {
      name = "partition-majority";
      doc =
        "a minority rank is cut off; the majority keeps its coordinator \
         and goodput, the minority fails typed, the heal replays its \
         parked join";
      run =
        (fun ~seed ~quick ->
          partition_majority_run ~seed ~size ~messages:(phases quick));
    };
    {
      name = "coordinator-loss";
      doc =
        "the partition strands the coordinator itself; the majority elects \
         a replacement and the re-election latency is recorded";
      run =
        (fun ~seed ~quick ->
          coordinator_loss_run ~seed ~size ~messages:(phases quick));
    };
    {
      name = "partition-flapping";
      doc =
        "repeated cut/heal cycles each isolate the sitting coordinator; \
         every flap forces a committed re-election and membership survives";
      run =
        (fun ~seed ~quick ->
          partition_flapping_run ~seed ~size ~messages:(phases quick)
            ~cycles:3);
    };
    {
      name = "coll-crash-barrier";
      doc =
        "a rank crashes mid-barrier, survivors decide, the restart re-joins \
         from the journal exactly-once";
      run = (fun ~seed ~quick:_ -> coll_crash_barrier_run ~seed);
    };
    {
      name = "coll-spine-overload";
      doc = "an Overloaded gateway is routed off the collective tree spine";
      run =
        (fun ~seed ~quick ->
          coll_spine_overload_run ~seed ~size:4096
            ~messages:(if quick then 24 else 48)
            ~credits:64 ~gw_pool:4 ~rx_cap_mb_s:1.0);
    };
    {
      name = "coll-rolling-allreduce";
      doc =
        "rolling restarts during a 64-rank allreduce; every survivor agrees \
         bit-identically";
      run =
        (fun ~seed ~quick:_ ->
          coll_rolling_allreduce_run ~seed ~clusters:8 ~per:8);
    };
    {
      name = "coll-scale";
      doc =
        "tree-vs-flat barrier latency at 64/256/1024 ranks, quick stopping \
         at 256; the flat/tree ratio at the largest size is gated";
      run =
        (fun ~seed ~quick ->
          coll_scale_run ~seed ~fanout:4
            ~sizes:
              ((8, 8) :: (16, 16) :: (if quick then [] else [ (32, 32) ])));
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let sweep =
  [
    "pingpong-faults"; "failover"; "goodput"; "crash-restart"; "overload";
    "slow-gateway"; "sched-aggreg"; "rolling-restart"; "join-under-load";
    "drain-under-load";
  ]

let run pool ~seed ~quick =
  Parsim.run pool
    (List.map
       (fun name ->
         let w = Option.get (find name) in
         ("chaos/" ^ name, fun () -> (name, w.run ~seed ~quick)))
       sweep)

let gates results = List.concat_map (fun (_, r) -> r.gates) results

let fingerprints pool ~seed ~quick names =
  let schedules name =
    let w = Option.get (find name) in
    Worlds.lines name (snd (Worlds.recording (fun () -> w.run ~seed ~quick)))
  in
  Printf.sprintf "# chaos schedule fingerprints (seed %d%s)\n" seed
    (if quick then ", quick" else "")
  ^ String.concat ""
      (Parsim.run pool
         (List.map
            (fun name -> ("fingerprints/" ^ name, fun () -> schedules name))
            names))

(* ------------------------------------------------------------------ *)
(* Rendering. Every figure is simulated, so a report is a pure function
   of (seed, quick): reruns are byte-identical. *)

let gates_json gates =
  Json.to_string
    (table
       (List.map (fun (n, ok) -> [ ("gate", Str n); ("pass", Bool ok) ]) gates))

let to_json ~seed ~quick results =
  let member (name, r) =
    match r.fields with
    | [ (key, (List _ as rows)) ] ->
        (* A workload that is nothing but a table (the fault rows) is
           inlined as that table. *)
        Printf.sprintf "%s: %s, " (Json.quote key) (Json.to_string rows)
    | fields ->
        Printf.sprintf "%s: %s,\n"
          (Json.quote (String.map (function '-' -> '_' | c -> c) name))
          (Json.to_string (Obj fields))
  in
  Printf.sprintf
    "{ \"chaos\": { \"seed\": %d, \"quick\": %b, %s\"gates\": %s } }\n" seed
    quick
    (String.concat "" (List.map member results))
    (gates_json (gates results))

let workload_json ~seed name r =
  Printf.sprintf
    "{ \"chaos\": { \"seed\": %d, \"workload\": %s,\n\
     \"metrics\": {\n%s\n},\n\"gates\": %s } }\n"
    seed (Json.quote name)
    (String.concat ",\n"
       (List.map
          (fun (k, v) ->
            Printf.sprintf "  %s: %s" (Json.quote k) (Json.to_string ~indent:2 v))
          r.fields))
    (gates_json r.gates)

let render_table ~seed ~quick results =
  Printf.sprintf "# chaos report (seed %d%s)\n" seed
    (if quick then ", quick" else "")
  ^ String.concat "" (List.map (fun (_, r) -> r.line) results)
  ^
  match
    List.filter_map (fun (n, ok) -> if ok then None else Some n) (gates results)
  with
  | [] -> "gates: all passed\n"
  | failed -> Printf.sprintf "gates FAILED: %s\n" (String.concat ", " failed)

(* ------------------------------------------------------------------ *)
(* The clean-path control: the quick chaos workload with no fault plane
   attached at all. Simspeed tracks its host events/s to catch the
   fault machinery taxing the fault-free fast path. *)

let clean_path_engines () =
  (* Enough iterations that the host-side wall clock of the scenario is
     tens of milliseconds: a 20%-tolerance gate on a millisecond-sized
     sample would be all noise. *)
  List.map
    (fun size ->
      let w = Harness.tcp_world () in
      ignore (Harness.mad_pingpong w ~bytes_count:size ~iters:256);
      w.Harness.engine)
    [ 4; 4096; 16384 ]

(* The windowed-protocol control: the reliable TCP stream with a fault
   plane attached but inert (no fault configured). Simspeed tracks its
   host events/s — once with the selective-repeat window and once
   degraded to stop-and-wait — to catch the window/session machinery
   taxing the fault-free fast path. *)
let inert_window_engine ~window =
  let w = world ~seed:42 eth ~window in
  let engine = Cf.engine w and stack = Cf.tcp_stack w ~net:"eth" in
  let c0, c1 = Tcpnet.socketpair (stack "n0") (stack "n1") in
  (* Enough messages that the wall clock is tens of milliseconds — the
     20%-tolerance gate would be pure scheduler noise on a smaller
     sample. *)
  let size = 4096 and messages = 1024 in
  let data = Harness.payload size 23L and buf = Bytes.create size in
  ignore
    (Harness.one_way engine ~messages
       ~send:(fun _ -> Tcpnet.send c0 data)
       ~recv:(fun _ -> Tcpnet.recv c1 buf ~off:0 ~len:size));
  engine
