(* Tests for virtual-channel reliability: gateway failover mid-stream,
   partition detection, single-channel reliable vchannels, the typed
   routing errors, and byte-reproducibility of the chaos report. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Faults = Simnet.Faults
module Vc = Madeleine.Vchannel
module Mb = Madeleine.Membership

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* A world from Clusterfile text: its engine, its fault plane and its
   vchannel "vc". *)
let parts cf =
  ( Clusterfile.engine cf,
    Option.get (Clusterfile.faults cf),
    Clusterfile.vchannel cf "vc" )

let built text = parts (Clusterfile.load text)

(* [built] plus the membership layer of a [version=] world. *)
let built_elastic text =
  let cf = Clusterfile.load text in
  let engine, faults, vc = parts cf in
  (engine, faults, vc, Option.get (Clusterfile.membership cf "vc"))

(* A reliable vchannel over a single two-node TCP channel: no gateways,
   so a peer crash is immediately a partition. *)
let single_channel_world () =
  built
    {|
faults  seed=3
network eth type=tcp
node n0 nets=eth
node n1 nets=eth
channel  c  net=eth nodes=n0,n1
vchannel vc channels=c mtu=4096 reliable=true
|}

(* Registry workloads at their CI size, judged through their named gates
   and fields. *)
let chaos_workload name =
  (Option.get (Chaos.find name)).Chaos.run ~seed:42 ~quick:true

let gate r name = List.assoc name r.Chaos.gates
let field r name = List.assoc name r.Chaos.fields

let int_field r name =
  match field r name with Json.Int n -> n | _ -> Alcotest.fail name

let test_gateway_crash_failover () =
  let f = chaos_workload "failover" in
  Alcotest.(check bool) "all messages intact" true
    (gate f "failover-intact");
  Alcotest.(check bool) "routes were recomputed" true
    (gate f "failover-rerouted");
  Alcotest.(check bool) "unacked packets re-emitted" true
    (int_field f "reemitted" > 0);
  Alcotest.(check bool) "crashed gateway left the route" true
    (match (field f "crashed_gateway", field f "route_after") with
    | Json.Int gw, Json.List route -> not (List.mem (Json.Int gw) route)
    | _ -> false);
  Alcotest.(check bool) "losing the last gateway partitions" true
    (gate f "failover-partition-detected")

(* The receiver's per-delivery check must reject each way a stream can
   go wrong, not only pass the clean case every gate sees. *)
let test_stream_check () =
  let messages = 4 in
  let judge ?flip order =
    let s = Chaos.stream_state ~tag:5 ~size:64 ~messages in
    List.iter
      (fun k ->
        let p = Chaos.stream_payload s k in
        if flip = Some k then
          Bytes.set p 40 (Char.chr (Char.code (Bytes.get p 40) lxor 1));
        Chaos.check_delivery s p)
      order;
    Chaos.verified s
  in
  Alcotest.(check bool) "clean sequence" true (judge [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "duplicate" false (judge [ 0; 1; 1; 2; 3 ]);
  Alcotest.(check bool) "skipped index" false (judge [ 0; 1; 3 ]);
  Alcotest.(check bool) "swapped pair" false (judge [ 0; 2; 1; 3 ]);
  Alcotest.(check bool) "out-of-range index" false
    (judge [ 0; 1; 2; 3; messages ]);
  Alcotest.(check bool) "flipped byte" false (judge ~flip:2 [ 0; 1; 2; 3 ])

let test_single_channel_reliable_then_partitioned () =
  let engine, faults, vc = single_channel_world () in
  let data = payload 12288 21L in
  let delivered = ref false and partitioned = ref false in
  Engine.spawn engine ~name:"sender" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"receiver" (fun () ->
      let sink = Bytes.create 12288 in
      let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic;
      delivered := Bytes.equal sink data;
      (* The sender may still be inside [end_packing], waiting for the
         transport-level ack of its last frame; crashing now would make
         that call (correctly) raise Partitioned. Let the ack land so
         the crash hits an idle flow. *)
      Engine.sleep (Time.us 1_000.0);
      Faults.crash_now faults ~node:1 ();
      (match Vc.begin_packing vc ~me:0 ~remote:1 with
      | exception Vc.Partitioned _ -> partitioned := true
      | _oc -> ());
      match Vc.route_length vc ~src:0 ~dst:1 with
      | _ -> ()
      | exception Vc.Partitioned _ -> ());
  Engine.run engine;
  Alcotest.(check bool) "message intact before the crash" true !delivered;
  Alcotest.(check bool) "peer crash partitions a 1-channel vchannel" true
    !partitioned

let test_route_queries_partitioned () =
  let engine, faults, vc = single_channel_world () in
  let saw_partitioned = ref false in
  Engine.spawn engine ~name:"probe" (fun () ->
      Faults.crash_now faults ~node:1 ();
      (match Vc.route_length vc ~src:0 ~dst:1 with
      | _ -> ()
      | exception Vc.Partitioned _ -> saw_partitioned := true);
      match Vc.peer_status vc ~src:0 ~dst:1 with
      | Madeleine.Iface.Down -> ()
      | h ->
          Alcotest.failf "peer_status after crash: %a, expected Down"
            Madeleine.Iface.pp_health h);
  Engine.run engine;
  Alcotest.(check bool) "route query raises Partitioned" true !saw_partitioned

let test_route_queries_invalid_rank () =
  let _engine, _faults, vc = single_channel_world () in
  (match Vc.route_length vc ~src:0 ~dst:9 with
  | _ -> Alcotest.fail "expected Invalid_argument for unknown rank"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the rank" true (contains msg "9"));
  match Vc.route_via vc ~src:7 ~dst:1 with
  | _ -> Alcotest.fail "expected Invalid_argument for unknown rank"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the rank" true (contains msg "7")

let test_crash_restart_exactly_once () =
  let r = chaos_workload "crash-restart" in
  Alcotest.(check bool) "delivered exactly once, bit-identical" true
    (gate r "crash-restart-exactly-once");
  Alcotest.(check int) "both phases fully delivered" 6
    (int_field r "delivered");
  Alcotest.(check bool) "crash-epoch handshake completed" true
    (gate r "crash-restart-handshake");
  Alcotest.(check bool) "routes were recomputed" true
    (int_field r "reroutes" >= 1);
  Alcotest.(check bool) "sentinels observed the outage" true
    (field r "suspicions" <> Json.List []);
  (* Once the stream completes, every origin re-emission log is empty:
     everything sent in the current epoch has been acknowledged. *)
  match field r "flows" with
  | Json.List flows ->
      List.iter
        (fun f ->
          Alcotest.(check bool) "origin log drained" true
            (Json.member "unacked" f = Json.Int 0))
        flows
  | _ -> Alcotest.fail "flows"

(* Crash-epoch sessions under credit flow control: rank 0 streams to
   rank 2 through the only gateway (rank 1) on a credits=4 reliable
   vchannel. Once phase one has landed the origin crashes and restarts
   (the paused sender resumes after the reboot); the first phase-two
   delivery then crashes and restarts the gateway with the rest of
   phase two in flight. Every counter the crash paths touch is pinned,
   so a rewrite of the per-flow state must reproduce them exactly. *)
let test_credit_crash_restart_pinned () =
  let engine, faults, vc =
    built
      {|
faults  seed=5
network ethA type=tcp
network ethB type=tcp
node n0 nets=ethA
node n1 nets=ethA,ethB
node n2 nets=ethB
channel  c-a net=ethA nodes=n0,n1
channel  c-b net=ethB nodes=n1,n2
vchannel vc  channels=c-a,c-b mtu=4096 credits=4 reliable=true
|}
  in
  let phase = 6 in
  let finish = ref Time.zero in
  let s =
    Chaos.stream engine vc ~tag:23 ~src:0 ~dst:2 ~size:8000
      ~messages:(2 * phase)
      ~pause:(phase, fun () -> Faults.epoch faults 0 <> 0)
      ~on_delivery:(fun k ->
        if k = phase - 1 then
          Faults.crash_now faults ~node:0 ~restart_after:(Time.us 2_000.0) ();
        if k = phase then
          Faults.crash_now faults ~node:1 ~restart_after:(Time.us 5_000.0) ();
        finish := Engine.now engine)
      ()
  in
  Engine.run engine;
  Alcotest.(check bool) "delivered exactly once, bit-identical" true
    (Chaos.verified s);
  let cs = Option.get (Vc.credit_stats vc)
  and rs = Option.get (Vc.rel_stats vc) in
  let lines =
    [
      Printf.sprintf "credits budget=%d grants=%d probes=%d stalls=%d"
        cs.Vc.credit_budget cs.Vc.grants cs.Vc.probes cs.Vc.stalls;
      Printf.sprintf "rel reroutes=%d reemitted=%d dup_drops=%d handshakes=%d"
        rs.Vc.reroutes rs.Vc.reemitted rs.Vc.dup_drops rs.Vc.handshakes;
    ]
    @ List.map
        (fun f ->
          Printf.sprintf "flow %d->%d sent=%d unacked=%d delivered=%d"
            f.Vc.flow_src f.Vc.flow_dst f.Vc.sent f.Vc.unacked f.Vc.delivered)
        (Vc.flow_stats vc)
    @ List.map
        (fun q ->
          Printf.sprintf "queue %s %d/%d peak=%d bound=%s" q.Vc.q_point
            q.Vc.q_node q.Vc.q_peer q.Vc.q_peak
            (Option.fold ~none:"-" ~some:string_of_int q.Vc.q_bound))
        (Vc.queue_stats vc)
    @ [ Printf.sprintf "finish=%.3f us" (Time.to_us !finish) ]
  in
  Alcotest.(check (list string))
    "pinned counters"
    [
      "credits budget=4 grants=13 probes=1 stalls=4";
      "rel reroutes=2 reemitted=8 dup_drops=5 handshakes=1";
      "flow 0->2 sent=24 unacked=0 delivered=24";
      "queue assembler_bytes 2/0 peak=4096 bound=16384";
      "queue gateway_pool_slots 1/-1 peak=4 bound=4";
      "queue unacked_packets 0/2 peak=4 bound=4";
      "finish=21694.702 us";
    ]
    lines

(* Rank 0 and rank 2 joined through one gateway (rank 1) on a credits=1
   reliable vchannel: every message waits for the grant of the one
   before. *)
let credit1_gateway_world () =
  built
    {|
faults  seed=5
network ethA type=tcp
network ethB type=tcp
node n0 nets=ethA
node n1 nets=ethA,ethB
node n2 nets=ethB
channel  c-a net=ethA nodes=n0,n1
channel  c-b net=ethB nodes=n1,n2
vchannel vc  channels=c-a,c-b mtu=4096 credits=1 reliable=true
|}

(* A grant is a detached packet: no log re-emits it, so one that dies in
   a crash is gone for good. Rank 0 streams to rank 2; the gateway
   crashes 100 us after message 0 is delivered, with that message's
   grant on its way through it, and restarts 2 ms later; the sender
   holds message 1 until the restart. It then has no credit and
   nothing in flight, so only its zero-window probe, 1 ms later, brings
   the credit back. A second probe follows: the grant for message 1
   takes more than the reset 1 ms interval to come back through the
   restarted gateway. *)
let test_credit_probe_recovers_lost_grant () =
  let engine, faults, vc = credit1_gateway_world () in
  let s =
    Chaos.stream engine vc ~tag:29 ~src:0 ~dst:2 ~size:2000 ~messages:4
      ~pause:(1, fun () -> Faults.epoch faults 1 <> 0)
      ~on_delivery:(fun k ->
        if k = 0 then
          Faults.crash_node faults ~node:1
            ~at:(Time.add (Engine.now engine) (Time.us 100.0))
            ~restart_after:(Time.us 2_000.0) ())
      ()
  in
  Engine.run engine;
  Alcotest.(check bool) "delivered exactly once, bit-identical" true
    (Chaos.verified s);
  let cs = Option.get (Vc.credit_stats vc) in
  Alcotest.(check int) "probes" 2 cs.Vc.probes

(* The same world, but the sender has already backed off: the receiver
   consumes message 0 only 130 ms after it arrives, so the blocked
   sender's probes (at 1, 3, 7, ... 127 ms) are 64 ms apart when the
   grant of message 0 dies in the gateway, which crashes 100 us after
   that consumption and restarts 2 ms later. The crash puts the flow's
   probe back to the 1 ms interval, so message 1 lands 4.6 ms after
   the consumption; left at 64 ms, the next probe goes out at 191 ms
   and message 1 lands 62.6 ms after the consumption. *)
let test_credit_probe_backed_off_lost_grant () =
  let engine, faults, vc = credit1_gateway_world () in
  let size = 2000 in
  let msgs = Array.init 2 (fun k -> payload size (Int64.of_int (40 + k))) in
  let consumed = ref Time.zero and landed = ref Time.zero in
  Harness.spawn_one_way engine ~messages:2
    ~send:(fun k ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
      Vc.pack oc msgs.(k);
      Vc.end_packing oc)
    ~recv:(fun k ->
      if k = 0 then Engine.sleep (Time.ms 130.0);
      let sink = Bytes.create size in
      Harness.vc_recv vc ~me:2 ~remote:0 sink;
      Alcotest.(check bool)
        (Printf.sprintf "message %d intact" k)
        true (Bytes.equal sink msgs.(k));
      if k = 0 then begin
        consumed := Engine.now engine;
        Faults.crash_node faults ~node:1
          ~at:(Time.add !consumed (Time.us 100.0))
          ~restart_after:(Time.us 2_000.0) ()
      end
      else landed := Engine.now engine);
  Engine.run engine;
  let after = Time.diff !landed !consumed in
  Alcotest.(check bool)
    (Printf.sprintf "message 1 lands %d us after the consumption"
       (after / 1000))
    true
    (after < Time.ms 10.0)

(* The stated walk order: a vchannel walks its per-pair state in
   ascending rank order, and re-emission daemons and crash handshakes
   spawn in that order. Source s (rank 0) sends one message to each of
   d3, d4 and d5 through gateway g1 (rank 1), in descending order; g1
   also sends one message to each. g1 crashes while all six pairs hold
   unacked packets: the origin s re-emits over g2 in ascending
   destination order, on its one connection to g2, so the re-emitted
   messages land in that order. When g1 restarts, d3, d4 and d5
   handshake in ascending order, and g1's second messages, each waiting
   on its pair's handshake, land in that order too. Every message is
   delivered exactly once. *)
let test_walks_ascend () =
  let engine, faults, vc =
    built
      {|
faults  seed=1
network ethA type=tcp
network ethB type=tcp
node s  nets=ethA
node g1 nets=ethA,ethB
node g2 nets=ethA,ethB
node d3 nets=ethB
node d4 nets=ethB
node d5 nets=ethB
channel c-a net=ethA nodes=s,g1,g2
channel c-b net=ethB nodes=g1,g2,d3,d4,d5
vchannel vc channels=c-a,c-b mtu=4096 reliable=true
|}
  in
  let dsts = [ 3; 4; 5 ] and crash_at = Time.us 500.0 in
  let restarted = Time.add (Time.add Time.zero crash_at) (Time.us 5_001.0) in
  Alcotest.(check (list int)) "g1 carries s's traffic" [ 1; 3 ]
    (Vc.route_via vc ~src:0 ~dst:3);
  let msg ~src ~dst k =
    payload 1000 (Int64.of_int ((100 * src) + (10 * dst) + k))
  in
  let arrivals = ref [] in
  let recv ~src ~dst k =
    let b = Bytes.create 1000 in
    Harness.vc_recv vc ~me:dst ~remote:src b;
    Alcotest.(check bool) "payload intact" true
      (Bytes.equal b (msg ~src ~dst k));
    arrivals := (Time.to_ns (Engine.now engine), src, dst, k) :: !arrivals
  in
  List.iter
    (fun dst ->
      Engine.spawn engine ~name:"s" (fun () ->
          Harness.vc_send vc ~me:0 ~remote:dst (msg ~src:0 ~dst 0));
      Engine.spawn engine ~name:"g1" (fun () ->
          Harness.vc_send vc ~me:1 ~remote:dst (msg ~src:1 ~dst 0);
          Engine.sleep (Time.diff restarted (Engine.now engine));
          Harness.vc_send vc ~me:1 ~remote:dst (msg ~src:1 ~dst 1)))
    (List.rev dsts);
  List.iter
    (fun dst ->
      Engine.spawn engine ~name:"from s" (fun () -> recv ~src:0 ~dst 0);
      Engine.spawn engine ~name:"from g1" (fun () ->
          recv ~src:1 ~dst 0;
          recv ~src:1 ~dst 1))
    dsts;
  let unacked_at_crash = ref [] in
  Engine.at engine (Time.add Time.zero crash_at) (fun () ->
      unacked_at_crash :=
        List.filter_map
          (fun f ->
            if f.Vc.unacked > 0 then Some (f.Vc.flow_src, f.Vc.flow_dst)
            else None)
          (Vc.flow_stats vc);
      Faults.crash_now faults ~node:1 ~restart_after:(Time.us 5_000.0) ());
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "six pairs unacked at the crash"
    [ (0, 3); (0, 4); (0, 5); (1, 3); (1, 4); (1, 5) ]
    !unacked_at_crash;
  let order src k =
    List.sort compare !arrivals
    |> List.filter_map (fun (_, s, d, k') ->
           if s = src && k' = k then Some d else None)
  in
  Alcotest.(check (list int)) "re-emitted in ascending pair order" dsts
    (order 0 0);
  Alcotest.(check (list int)) "handshakes in ascending pair order" dsts
    (order 1 1);
  Alcotest.(check int) "every message delivered once" 9
    (List.length !arrivals);
  let rs = Option.get (Vc.rel_stats vc) in
  Alcotest.(check (list int)) "re-emitted, dropped, handshakes" [ 3; 0; 3 ]
    [ rs.Vc.reemitted; rs.Vc.dup_drops; rs.Vc.handshakes ]

let test_window_beats_stop_and_wait () =
  let g = chaos_workload "goodput" in
  Alcotest.(check bool) "both streams intact" true
    (gate g "goodput-intact");
  Alcotest.(check bool) "selective repeat >= 2x stop-and-wait at 1% drop" true
    (gate g "goodput-window-speedup")

(* ------------------------------------------------------------------ *)
(* Live topology: a 4-rank redundant-gateway world with the membership
   promoted to a versioned epoch snapshot (coordinator 0, epoch 1).
   ethA joins 0,1,2 and ethB joins 1,2,3, so ranks 1 and 2 are
   interchangeable gateways for the 0 <-> 3 flows. *)

let live_world () =
  built_elastic
    {|
faults  seed=7
network ethA type=tcp
network ethB type=tcp
node n0 nets=ethA
node n1 nets=ethA,ethB
node n2 nets=ethA,ethB
node n3 nets=ethB
channel  c-a net=ethA nodes=n0,n1,n2
channel  c-b net=ethB nodes=n1,n2,n3
vchannel vc  channels=c-a,c-b mtu=4096 reliable=true version=1 coordinator=n0
|}

(* Two concurrent flows, one epoch swap mid-stream. [drain_spare]
   drains the gateway NOT on the 0 -> 3 route (no flow's route changes:
   nothing may be re-emitted); otherwise the on-route gateway drains
   (the 0 -> 3 flow reroutes and only its unacked packets re-emit).
   Either way both flows must land exactly-once, bit-identical. *)
let run_topology_swap ~drain_spare =
  let engine, _faults, vc, m = live_world () in
  let messages = 6 and size = 8192 in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let spare = if gw = 1 then 2 else 1 in
  let target = if drain_spare then spare else gw in
  (* The second flow goes to whichever gateway is NOT drained; its
     single-hop route never changes. *)
  let keep = if target = gw then spare else gw in
  let mk tag m =
    let p = payload size (Int64.of_int (50 + tag)) in
    Bytes.set_int32_le p 0 (Int32.of_int m);
    p
  in
  let rec_far = Array.make messages 0 and rec_near = Array.make messages 0 in
  let intact = ref true and partitioned = ref false in
  let delivered = ref 0 in
  let recv_flow ~me ~tag arr =
    Engine.spawn engine ~name:(Printf.sprintf "recv%d" me) (fun () ->
        for _ = 1 to messages do
          let sink = Bytes.create size in
          let ic = Vc.begin_unpacking_from vc ~me ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          let idx = Int32.to_int (Bytes.get_int32_le sink 0) in
          (if idx < 0 || idx >= messages then intact := false
           else begin
             arr.(idx) <- arr.(idx) + 1;
             if not (Bytes.equal sink (mk tag idx)) then intact := false
           end);
          incr delivered
        done)
  in
  Engine.spawn engine ~name:"sender" (fun () ->
      for m = 0 to messages - 1 do
        List.iter
          (fun (remote, tag) ->
            match Vc.begin_packing vc ~me:0 ~remote with
            | exception Vc.Partitioned _ -> partitioned := true
            | oc ->
                Vc.pack oc (mk tag m);
                Vc.end_packing oc)
          [ (3, 0); (keep, 1) ]
      done);
  recv_flow ~me:3 ~tag:0 rec_far;
  recv_flow ~me:keep ~tag:1 rec_near;
  Engine.spawn engine ~name:"swapper" (fun () ->
      while !delivered < 2 do
        Engine.sleep (Time.us 200.0)
      done;
      match Mb.drain m ~rank:target with
      | () -> ()
      | exception Vc.Partitioned _ -> partitioned := true);
  Engine.run engine;
  let stats = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  let exactly_once =
    !intact
    && Array.for_all (fun n -> n = 1) rec_far
    && Array.for_all (fun n -> n = 1) rec_near
  in
  (vc, target, stats, exactly_once, !partitioned)

let test_topology_swap_reemits_only_changed () =
  (* On-route gateway drains: the 0 -> 3 flow reroutes and re-emits. *)
  let vc, target, stats, exactly_once, partitioned =
    run_topology_swap ~drain_spare:false
  in
  Alcotest.(check bool) "exactly-once across the swap" true exactly_once;
  Alcotest.(check bool) "no flow saw Partitioned" false partitioned;
  Alcotest.(check bool) "route-changed flow re-emitted" true
    (stats.Vc.reemitted > 0);
  Alcotest.(check bool) "drained gateway left the route" true
    (not (List.mem target (Vc.route_via vc ~src:0 ~dst:3)));
  (* Spare gateway drains: the epoch advances but no flow's route
     changes — nothing may be re-emitted. *)
  let _vc, _target, stats2, exactly_once2, partitioned2 =
    run_topology_swap ~drain_spare:true
  in
  Alcotest.(check bool) "exactly-once across the no-op swap" true
    exactly_once2;
  Alcotest.(check bool) "no flow saw Partitioned (spare)" false partitioned2;
  Alcotest.(check int) "unchanged flows not re-emitted" 0 stats2.Vc.reemitted

let test_departed_peer_status () =
  let engine, _faults, vc, m = live_world () in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  Engine.spawn engine ~name:"drainer" (fun () ->
      Mb.drain m ~rank:gw;
      (* A departed rank gets the typed verdict, in both directions. *)
      (match Vc.peer_status vc ~src:0 ~dst:gw with
      | Madeleine.Iface.Departed -> ()
      | h ->
          Alcotest.failf "peer_status to departed rank: %a, expected Departed"
            Madeleine.Iface.pp_health h);
      (match Vc.peer_status vc ~src:gw ~dst:0 with
      | Madeleine.Iface.Departed -> ()
      | h ->
          Alcotest.failf "peer_status from departed rank: %a" Madeleine.Iface.pp_health h);
      (* Failover treats it like Down: new flows refuse... *)
      (match Vc.begin_packing vc ~me:0 ~remote:gw with
      | exception Vc.Partitioned _ -> ()
      | _ -> Alcotest.fail "begin_packing to a departed rank must raise");
      (* ...and no recomputed route relays through it. *)
      List.iter
        (fun dst ->
          if dst <> 0 && dst <> gw then
            Alcotest.(check bool)
              (Printf.sprintf "route 0->%d avoids departed %d" dst gw)
              true
              (not (List.mem gw (Vc.route_via vc ~src:0 ~dst))))
        (Vc.ranks vc);
      (* Member flows still report normally. *)
      match Vc.peer_status vc ~src:0 ~dst:3 with
      | Madeleine.Iface.Up | Madeleine.Iface.Degraded _ -> ()
      | h -> Alcotest.failf "live flow status: %a" Madeleine.Iface.pp_health h);
  Engine.run engine

(* Random join/drain sequences: membership converges to the final
   epoch's snapshot, routes never relay through a non-member, and
   member-pair reachability matches a reference BFS over the physical
   adjacency restricted to members. *)
let physical_pairs =
  (* ethA is 0,1,2 all-pairs; ethB is 1,2,3 all-pairs. *)
  [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]

let reference_reachable members a b =
  let adj n =
    List.filter_map
      (fun (x, y) ->
        if x = n && List.mem y members then Some y
        else if y = n && List.mem x members then Some x
        else None)
      physical_pairs
  in
  let rec bfs seen = function
    | [] -> false
    | n :: _ when n = b -> true
    | n :: rest ->
        let next =
          List.filter (fun m -> not (List.mem m seen)) (adj n)
        in
        bfs (next @ seen) (rest @ next)
  in
  a = b || bfs [ a ] [ a ]

let prop_join_drain_converges =
  QCheck.Test.make ~name:"random join/drain sequences converge" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (int_range 1 3) bool))
    (fun ops ->
      let engine, _faults, vc, m = live_world () in
      let applied = ref 0 in
      Engine.spawn engine ~name:"ops" (fun () ->
          List.iter
            (fun (rank, is_drain) ->
              let members = Madeleine.Topology.ranks (Mb.topology m) in
              let mem = List.mem rank members in
              if is_drain && mem then (
                (* May legitimately abort when the drain request cannot
                   reach the coordinator through the remaining members. *)
                match Mb.drain m ~rank with
                | () -> incr applied
                | exception Vc.Partitioned _ -> ())
              else if (not is_drain) && not mem then (
                match Mb.join m ~rank with
                | (_ : int) -> incr applied
                | exception Vc.Partitioned _ -> ()))
            ops);
      Engine.run engine;
      let snap = Mb.topology m in
      let members = Madeleine.Topology.ranks snap in
      (* Every applied op advanced the epoch exactly once. *)
      let epoch_ok = Madeleine.Topology.epoch snap = 1 + !applied in
      (* Non-members: typed Departed, and on no member-pair route. *)
      let departed_ok =
        List.for_all
          (fun r ->
            List.mem r members
            || Vc.peer_status vc ~src:0 ~dst:r = Madeleine.Iface.Departed)
          [ 1; 2; 3 ]
      in
      (* Member pairs route exactly when the member-restricted physical
         graph connects them, and never relay through a non-member. *)
      let routes_ok =
        List.for_all
          (fun s ->
            List.for_all
              (fun d ->
                s = d
                ||
                match Vc.route_via vc ~src:s ~dst:d with
                | hops ->
                    reference_reachable members s d
                    && List.for_all (fun h -> List.mem h members) hops
                | exception Vc.Partitioned _ ->
                    not (reference_reachable members s d))
              members)
          members
      in
      epoch_ok && departed_ok && routes_ok)

(* ------------------------------------------------------------------ *)
(* Quorum elections: a 4-rank single-fabric world with the coordinator
   seat quorum-elected (majority of the initial membership, 3 of 4).
   Partitions are injected at the fault plane, so detection, candidacy
   and commit all ride the normal sentinel/control-plane machinery. *)

let election_world () =
  built_elastic
    {|
faults  seed=11
network eth type=tcp
node n0 nets=eth
node n1 nets=eth
node n2 nets=eth
node n3 nets=eth
channel  c  net=eth nodes=n0,n1,n2,n3
vchannel vc channels=c mtu=4096 reliable=true version=1 coordinator=n0 election=on
|}

(* Sentinel probing is activity-gated; keep every detector's grace
   window open while a scenario runs, as real traffic would. *)
let spawn_prober engine vc ~stop =
  Engine.spawn engine ~name:"prober" (fun () ->
      while not !stop do
        List.iter
          (fun r ->
            match Vc.sentinel vc ~rank:r with
            | Some s -> Madeleine.Sentinel.touch s
            | None -> ())
          (Vc.ranks vc);
        Engine.sleep (Time.us 400.0)
      done)

let members m = Madeleine.Topology.ranks (Mb.topology m)

let epochs_unique stats =
  let epochs = List.map fst stats.Mb.commits in
  List.sort_uniq compare epochs = List.sort compare epochs

(* Cut the coordinator off: the majority elects its lowest member, the
   minority loses quorum and its drain parks with the typed error, and
   the heal replays the parked intent exactly once. *)
let test_partition_elects_majority_coordinator () =
  let engine, faults, vc, m = election_world () in
  let stop = ref false in
  spawn_prober engine vc ~stop;
  let mid_coord = ref (-1) in
  let minority_quorum = ref true and majority_quorum = ref false in
  let minority_verdict = ref "none" in
  Engine.spawn engine ~name:"script" (fun () ->
      Engine.sleep (Time.ms 2.0);
      Faults.partition faults ~fabric:"eth" [ 0 ] [ 1; 2; 3 ];
      Engine.sleep (Time.ms 60.0);
      mid_coord := Mb.coordinator m;
      minority_quorum := Vc.has_quorum vc ~viewer:0;
      majority_quorum := Vc.has_quorum vc ~viewer:1;
      (* Rank 0 lost the seat to the majority's election, so draining
         it is legal — but its own side cannot reach a quorum. *)
      (match Mb.drain m ~rank:0 with
      | () -> minority_verdict := "applied"
      | exception Mb.No_quorum _ -> minority_verdict := "no-quorum"
      | exception Vc.Partitioned _ -> minority_verdict := "partitioned"
      | exception Invalid_argument _ -> minority_verdict := "invalid");
      Faults.heal faults ~fabric:"eth";
      Engine.sleep (Time.ms 100.0);
      stop := true);
  Engine.run engine;
  let stats = Mb.election_stats m in
  Alcotest.(check int) "majority elected a new coordinator" 1 !mid_coord;
  Alcotest.(check bool) "minority side lost quorum" false !minority_quorum;
  Alcotest.(check bool) "majority side kept quorum" true !majority_quorum;
  Alcotest.(check string) "minority drain surfaced the typed error"
    "no-quorum" !minority_verdict;
  Alcotest.(check (list int)) "heal replayed the parked drain" [ 1; 2; 3 ]
    (members m);
  Alcotest.(check int) "coordinator survived the heal" 1 (Mb.coordinator m);
  (match Vc.peer_status vc ~src:1 ~dst:0 with
  | Madeleine.Iface.Departed -> ()
  | h ->
      Alcotest.failf "replayed drain: peer_status %a, expected Departed"
        Madeleine.Iface.pp_health h);
  (* The replayed drain shrank the membership to 3, so the unpinned
     quorum follows it down to 2. *)
  Alcotest.(check int) "quorum tracks the current membership" 2
    stats.Mb.quorum;
  Alcotest.(check bool) "at least one committed election" true
    (stats.Mb.elections >= 1);
  Alcotest.(check bool) "commit latency measured" true
    (stats.Mb.last_latency_us > 0.0);
  Alcotest.(check int) "no intent left parked" 0 stats.Mb.pending;
  Alcotest.(check bool) "at most one coordinator per epoch" true
    (epochs_unique stats)

(* Random partition/heal/coordinator-crash/join/drain schedules. Safety:
   at most one coordinator ever commits any given epoch (the commits
   audit trail has unique epochs). Liveness: once the cuts heal, the
   membership converges to the model — every join/drain that returned
   [()] or parked with [No_quorum] eventually lands, nothing else does.
   Membership ops target ranks 2 and 3 only, so a parked drain can
   never collide with its own rank later winning an election (with a
   quorum of 3 over 4 ranks, only 0 or 1 can ever assemble one). *)
let prop_split_brain_safe =
  QCheck.Test.make ~name:"random partition/heal/crash schedules stay safe"
    ~count:12
    QCheck.(list_of_size Gen.(int_range 1 8) (pair (int_range 0 4) (int_range 0 3)))
    (fun ops ->
      let engine, faults, vc, m = election_world () in
      let stop = ref false in
      spawn_prober engine vc ~stop;
      let expected = ref [ 0; 1; 2; 3 ] in
      let cut = ref false in
      Engine.spawn engine ~name:"schedule" (fun () ->
          List.iter
            (fun (kind, rank) ->
              (match kind with
              | 0 ->
                  if not !cut then begin
                    Faults.partition faults ~fabric:"eth" [ rank ]
                      (List.filter (fun r -> r <> rank) [ 0; 1; 2; 3 ]);
                    cut := true
                  end
              | 1 ->
                  if !cut then begin
                    Faults.heal faults ~fabric:"eth";
                    cut := false
                  end
              | 2 ->
                  let c = Mb.coordinator m in
                  if Simnet.Faults.node_up faults c then
                    Faults.crash_now faults ~node:c
                      ~restart_after:(Time.ms 3.0) ()
              | 3 ->
                  let rank = 2 + (rank land 1) in
                  if
                    List.mem rank (members m)
                    && Mb.coordinator m <> rank
                    && Simnet.Faults.node_up faults rank
                  then (
                    match Mb.drain m ~rank with
                    | () | (exception Mb.No_quorum _) ->
                        expected :=
                          List.filter (fun r -> r <> rank) !expected
                    | exception (Vc.Partitioned _ | Invalid_argument _) -> ())
              | _ ->
                  let rank = 2 + (rank land 1) in
                  if
                    (not (List.mem rank (members m)))
                    && Simnet.Faults.node_up faults rank
                  then (
                    match Mb.join m ~rank with
                    | (_ : int) | (exception Mb.No_quorum _) ->
                        expected := List.sort_uniq compare (rank :: !expected)
                    | exception (Vc.Partitioned _ | Invalid_argument _) -> ()));
              Engine.sleep (Time.ms 8.0))
            ops;
          (* Restore the physical world and let the replay settle. *)
          Faults.heal_all faults;
          Engine.sleep (Time.ms 120.0);
          (* A replay can be interrupted by a cut or crash landing in
             its patience window; it re-parks and waits for the next
             heal. Kick one more heal cycle if anything is left. *)
          if (Mb.election_stats m).Mb.pending > 0 then begin
            Faults.partition faults ~fabric:"eth" [ 0 ] [ 1 ];
            Faults.heal faults ~fabric:"eth";
            Engine.sleep (Time.ms 120.0)
          end;
          stop := true);
      Engine.run engine;
      let stats = Mb.election_stats m in
      let members = members m in
      epochs_unique stats
      && members = List.sort compare !expected
      && stats.Mb.pending = 0
      && List.mem (Mb.coordinator m) members)

let test_chaos_report_reproducible () =
  let report () =
    Chaos.to_json ~seed:42 ~quick:true
      (Parsim.with_pool ~jobs:1 (fun pool ->
           Chaos.run pool ~seed:42 ~quick:true))
  in
  Alcotest.(check string) "same seed, byte-identical report" (report ())
    (report ())

let () =
  Alcotest.run "failover"
    [
      ( "vchannel",
        [
          Alcotest.test_case "gateway crash mid-stream" `Quick
            test_gateway_crash_failover;
          Alcotest.test_case "stream check rejects bad deliveries" `Quick
            test_stream_check;
          Alcotest.test_case "single-channel partition" `Quick
            test_single_channel_reliable_then_partitioned;
          Alcotest.test_case "route queries: Partitioned" `Quick
            test_route_queries_partitioned;
          Alcotest.test_case "route queries: invalid rank" `Quick
            test_route_queries_invalid_rank;
          Alcotest.test_case "crash-restart: exactly once" `Quick
            test_crash_restart_exactly_once;
          Alcotest.test_case "window beats stop-and-wait" `Quick
            test_window_beats_stop_and_wait;
          Alcotest.test_case "credit crash-restart: pinned counters" `Quick
            test_credit_crash_restart_pinned;
          Alcotest.test_case "credit probe recovers a lost grant" `Quick
            test_credit_probe_recovers_lost_grant;
          Alcotest.test_case "backed-off credit probe recovers a lost grant"
            `Quick test_credit_probe_backed_off_lost_grant;
          Alcotest.test_case "crash walks go in ascending pair order" `Quick
            test_walks_ascend;
        ] );
      ( "live-topology",
        [
          Alcotest.test_case "swap re-emits only route-changed flows" `Quick
            test_topology_swap_reemits_only_changed;
          Alcotest.test_case "departed rank: typed status, no reroute to it"
            `Quick test_departed_peer_status;
          QCheck_alcotest.to_alcotest prop_join_drain_converges;
        ] );
      ( "elections",
        [
          Alcotest.test_case "partition: majority elects, minority parks"
            `Quick test_partition_elects_majority_coordinator;
          QCheck_alcotest.to_alcotest prop_split_brain_safe;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "report reproducible" `Slow
            test_chaos_report_reproducible;
        ] );
    ]
