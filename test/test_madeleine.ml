(* Tests for the Madeleine II core: interface semantics, the Switch /
   BMM / TM data path, and the paper's headline latency/bandwidth
   calibration points. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Mad = Madeleine.Api
module Channel = Madeleine.Channel
module Config = Madeleine.Config
module Iface = Madeleine.Iface

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

let in_range ?(lo = 0.0) ~hi what v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" what v lo hi)
    true
    (v >= lo && v <= hi)

(* World construction is shared with the benchmark harness. *)
type world = Harness.world = {
  engine : Engine.t;
  session : Madeleine.Session.t;
  channel : Channel.t;
}

let make_world = Harness.make_world
let bip_driver = Harness.bip_driver
let bip_world = Harness.bip_world
let sisci_world = Harness.sisci_world
let tcp_world = Harness.tcp_world
let via_world () = Harness.via_world ()
let sbp_world () = Harness.sbp_world ()
let pingpong = Harness.mad_pingpong

(* One message 0 -> 1 carrying [fields]; checks content. Returns arrival
   time of full message. *)
let roundtrip_fields w fields ~modes =
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  let arrived = ref Time.zero in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      List.iter2
        (fun data (s_mode, r_mode) -> Mad.pack oc ~s_mode ~r_mode data)
        fields modes;
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let sink = List.map (fun f -> Bytes.create (Bytes.length f)) fields in
      List.iter2
        (fun buf (s_mode, r_mode) -> Mad.unpack ic ~s_mode ~r_mode buf)
        sink modes;
      Mad.end_unpacking ic;
      arrived := Engine.now w.engine;
      List.iter2
        (fun expect got -> Alcotest.(check bytes) "field content" expect got)
        fields sink);
  Engine.run w.engine;
  !arrived

let cheaper = (Iface.Send_cheaper, Iface.Receive_cheaper)
and express = (Iface.Send_cheaper, Iface.Receive_express)

(* ------------------------------------------------------------------ *)
(* Content round-trips across all five PMMs *)

let roundtrip_small w = ignore (roundtrip_fields w [ payload 64 1L ] ~modes:[ cheaper ])
let roundtrip_large w =
  ignore (roundtrip_fields w [ payload 300_000 2L ] ~modes:[ cheaper ])

let roundtrip_mixed w =
  ignore
    (roundtrip_fields w
       [ payload 8 3L; payload 100_000 4L; payload 33 5L ]
       ~modes:[ express; cheaper; cheaper ])

let test_roundtrips name mk =
  [
    Alcotest.test_case (name ^ " small") `Quick (fun () ->
        roundtrip_small (mk ()));
    Alcotest.test_case (name ^ " large") `Quick (fun () ->
        roundtrip_large (mk ()));
    Alcotest.test_case (name ^ " mixed") `Quick (fun () ->
        roundtrip_mixed (mk ()));
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 1: EXPRESS size header, CHEAPER dynamically-allocated payload *)

let test_fig1_pattern () =
  let w = bip_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  let n = 20_000 in
  let data = payload n 6L in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int n);
      Mad.pack oc ~r_mode:Iface.Receive_express hdr;
      Mad.pack oc ~r_mode:Iface.Receive_cheaper data;
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let hdr = Bytes.create 4 in
      Mad.unpack ic ~r_mode:Iface.Receive_express hdr;
      (* EXPRESS: the size is usable right now, to allocate the array. *)
      let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
      Alcotest.(check int) "express size" n len;
      let sink = Bytes.create len in
      Mad.unpack ic ~r_mode:Iface.Receive_cheaper sink;
      Mad.end_unpacking ic;
      Alcotest.(check bytes) "payload" data sink);
  Engine.run w.engine

(* ------------------------------------------------------------------ *)
(* Semantic flags *)

let test_send_later_reads_at_commit () =
  (* LATER: a modification between pack and end_packing must be visible. *)
  let w = bip_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      let data = Bytes.make 16 'x' in
      Mad.pack oc ~s_mode:Iface.Send_later data;
      Bytes.fill data 0 16 'y';
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let sink = Bytes.create 16 in
      Mad.unpack ic ~s_mode:Iface.Send_later sink;
      Mad.end_unpacking ic;
      Alcotest.(check bytes) "updated value" (Bytes.make 16 'y') sink);
  Engine.run w.engine

let test_send_safer_protects_data () =
  (* SAFER: a modification right after pack must NOT corrupt the message. *)
  let w = bip_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      let data = Bytes.make 16 'x' in
      Mad.pack oc ~s_mode:Iface.Send_safer data;
      Bytes.fill data 0 16 'z';
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let sink = Bytes.create 16 in
      Mad.unpack ic ~s_mode:Iface.Send_safer sink;
      Mad.end_unpacking ic;
      Alcotest.(check bytes) "original value" (Bytes.make 16 'x') sink);
  Engine.run w.engine

let test_express_available_before_end () =
  (* The express field must be readable before end_unpacking. *)
  let w = sisci_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc ~r_mode:Iface.Receive_express (Bytes.make 4 'k');
      Mad.pack oc (payload 64 7L);
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let hdr = Bytes.create 4 in
      Mad.unpack ic ~r_mode:Iface.Receive_express hdr;
      Alcotest.(check bytes) "express now" (Bytes.make 4 'k') hdr;
      let sink = Bytes.create 64 in
      Mad.unpack ic sink;
      Mad.end_unpacking ic);
  Engine.run w.engine

let test_tm_usage_accounting () =
  (* One small field (short TM 0) and one large (regular TM 1). *)
  let w = sisci_world () in
  ignore
    (roundtrip_fields w
       [ payload 16 40L; payload 50_000 41L ]
       ~modes:[ cheaper; cheaper ]);
  match Channel.tm_usage w.channel with
  | [ (0, 1, 16); (1, 1, 50_000) ] -> ()
  | other ->
      Alcotest.failf "unexpected usage: %s"
        (String.concat ";"
           (List.map (fun (t, p, b) -> Printf.sprintf "(%d,%d,%d)" t p b) other))

(* ------------------------------------------------------------------ *)
(* Symmetry checking *)

let test_symmetry_size_mismatch_detected () =
  let w = bip_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc (Bytes.create 16);
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      match Mad.unpack ic (Bytes.create 24) with
      | () -> Alcotest.fail "expected Symmetry_violation"
      | exception Config.Symmetry_violation _ -> ());
  Engine.run w.engine

let test_symmetry_mode_mismatch_detected () =
  let w = bip_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc ~r_mode:Iface.Receive_cheaper (Bytes.create 16);
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      match Mad.unpack ic ~r_mode:Iface.Receive_express (Bytes.create 16) with
      | () -> Alcotest.fail "expected Symmetry_violation"
      | exception Config.Symmetry_violation _ -> ());
  Engine.run w.engine

(* ------------------------------------------------------------------ *)
(* Message sequences, ordering, any-source *)

let test_message_sequence_in_order () =
  let w = sisci_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  let got = ref [] in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      for i = 1 to 10 do
        let oc = Mad.begin_packing ep0 ~remote:1 in
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int i);
        Mad.pack oc b;
        Mad.end_packing oc
      done);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      for _ = 1 to 10 do
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        let b = Bytes.create 8 in
        Mad.unpack ic b;
        Mad.end_unpacking ic;
        got := Int64.to_int (Bytes.get_int64_le b 0) :: !got
      done);
  Engine.run w.engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !got)

let test_any_source_unpacking () =
  let w = make_world ~n:3 bip_driver Netparams.myrinet in
  let ep2 = Channel.endpoint w.channel ~rank:2 in
  let senders_seen = ref [] in
  let send_from rank delay =
    Engine.spawn w.engine ~name:(Printf.sprintf "sender%d" rank) (fun () ->
        Engine.sleep delay;
        let oc =
          Mad.begin_packing (Channel.endpoint w.channel ~rank) ~remote:2
        in
        Mad.pack oc (Bytes.make 8 (Char.chr (Char.code '0' + rank)));
        Mad.end_packing oc)
  in
  send_from 0 (Time.us 50.0);
  send_from 1 (Time.us 5.0);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      for _ = 1 to 2 do
        let ic = Mad.begin_unpacking ep2 in
        let b = Bytes.create 8 in
        Mad.unpack ic b;
        Mad.end_unpacking ic;
        senders_seen := Mad.remote_rank ic :: !senders_seen;
        Alcotest.(check char)
          "content matches source"
          (Char.chr (Char.code '0' + Mad.remote_rank ic))
          (Bytes.get b 0)
      done);
  Engine.run w.engine;
  (* Rank 1 sent first (5 us), so it must be unpacked first. *)
  Alcotest.(check (list int)) "arrival order" [ 1; 0 ] (List.rev !senders_seen)

let test_channels_do_not_interfere () =
  (* Two channels on the same BIP network: messages on one channel must
     not be visible on the other. *)
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"net" ~link:Netparams.myrinet in
  let nodes =
    List.init 2 (fun i ->
        let node = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric node;
        node)
  in
  let driver = bip_driver engine fabric nodes in
  let session = Madeleine.Session.create engine in
  let channel = Channel.create session driver ~ranks:[ 0; 1 ] () in
  let w = { engine; session; channel } in
  let chan2 = Channel.create w.session driver ~ranks:[ 0; 1 ] () in
  let ep0a = Channel.endpoint w.channel ~rank:0 in
  let ep1a = Channel.endpoint w.channel ~rank:1 in
  let ep0b = Channel.endpoint chan2 ~rank:0 in
  let ep1b = Channel.endpoint chan2 ~rank:1 in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0a ~remote:1 in
      Mad.pack oc (Bytes.make 8 'A');
      Mad.end_packing oc;
      let oc = Mad.begin_packing ep0b ~remote:1 in
      Mad.pack oc (Bytes.make 8 'B');
      Mad.end_packing oc);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      (* Receive on channel 2 first: its message is the only one there. *)
      let ic = Mad.begin_unpacking_from ep1b ~remote:0 in
      let b = Bytes.create 8 in
      Mad.unpack ic b;
      Mad.end_unpacking ic;
      Alcotest.(check char) "channel2" 'B' (Bytes.get b 0);
      let ic = Mad.begin_unpacking_from ep1a ~remote:0 in
      let a = Bytes.create 8 in
      Mad.unpack ic a;
      Mad.end_unpacking ic;
      Alcotest.(check char) "channel1" 'A' (Bytes.get a 0));
  Engine.run w.engine

let test_bidirectional_simultaneous () =
  let w = sisci_world () in
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  Engine.spawn w.engine ~name:"node0" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc (payload 10_000 20L);
      Mad.end_packing oc;
      let ic = Mad.begin_unpacking_from ep0 ~remote:1 in
      let sink = Bytes.create 10_000 in
      Mad.unpack ic sink;
      Mad.end_unpacking ic;
      Alcotest.(check bytes) "0 got" (payload 10_000 21L) sink);
  Engine.spawn w.engine ~name:"node1" (fun () ->
      let oc = Mad.begin_packing ep1 ~remote:0 in
      Mad.pack oc (payload 10_000 21L);
      Mad.end_packing oc;
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let sink = Bytes.create 10_000 in
      Mad.unpack ic sink;
      Mad.end_unpacking ic;
      Alcotest.(check bytes) "1 got" (payload 10_000 20L) sink);
  Engine.run w.engine

(* ------------------------------------------------------------------ *)
(* Ping-pong calibration: the paper's headline numbers *)

let test_sisci_latency_calibration () =
  (* Paper Fig. 4: minimal latency 3.9 us over SISCI/SCI. *)
  let one_way = pingpong (sisci_world ()) ~bytes_count:4 ~iters:50 in
  in_range ~lo:3.3 ~hi:4.5 "mad/sisci latency us" (Time.to_us one_way)

let test_bip_latency_calibration () =
  (* Paper §5.2.2: minimal latency 7 us over BIP/Myrinet. *)
  let one_way = pingpong (bip_world ()) ~bytes_count:4 ~iters:50 in
  in_range ~lo:6.0 ~hi:8.0 "mad/bip latency us" (Time.to_us one_way)

let test_sisci_bandwidth_calibration () =
  (* Paper Fig. 4: 82 MB/s asymptotic bandwidth over SISCI/SCI. *)
  let n = 1 lsl 20 in
  let one_way = pingpong (sisci_world ()) ~bytes_count:n ~iters:4 in
  let bw = Time.rate_mb_s ~bytes_count:n one_way in
  in_range ~lo:75.0 ~hi:89.0 "mad/sisci bandwidth" bw

let test_bip_bandwidth_calibration () =
  (* Paper §5.2.2: 122 MB/s bandwidth over BIP/Myrinet (raw BIP: 126). *)
  let n = 1 lsl 20 in
  let one_way = pingpong (bip_world ()) ~bytes_count:n ~iters:4 in
  let bw = Time.rate_mb_s ~bytes_count:n one_way in
  in_range ~lo:115.0 ~hi:127.0 "mad/bip bandwidth" bw

let test_sisci_dual_buffering_kink () =
  (* Fig. 4: the dual-buffering algorithm kicks in above 8 kB; per-byte
     throughput at 32 kB must clearly beat 8 kB. *)
  let bw n =
    let one_way = pingpong (sisci_world ()) ~bytes_count:n ~iters:8 in
    Time.rate_mb_s ~bytes_count:n one_way
  in
  let bw8 = bw 8192 and bw32 = bw 32768 in
  Alcotest.(check bool)
    (Printf.sprintf "dual buffering improves: %.1f -> %.1f MB/s" bw8 bw32)
    true
    (bw32 > bw8 *. 1.2)

let test_sisci_single_slot_ablation () =
  (* With a single ring slot, the sender cannot overlap the receiver's
     copy-out: large-message bandwidth must drop. *)
  let bw config =
    let w = sisci_world ~config () in
    let one_way = pingpong w ~bytes_count:(1 lsl 18) ~iters:4 in
    Time.rate_mb_s ~bytes_count:(1 lsl 18) one_way
  in
  let dual = bw Config.default in
  let single = bw { Config.default with Config.sisci_ring_slots = 1 } in
  Alcotest.(check bool)
    (Printf.sprintf "dual %.1f > single %.1f MB/s" dual single)
    true (dual > single *. 1.15)

let test_sisci_dma_is_slower () =
  (* The DMA TM is implemented but disabled by default for good reason. *)
  let bw config =
    let w = sisci_world ~config () in
    let one_way = pingpong w ~bytes_count:(1 lsl 18) ~iters:4 in
    Time.rate_mb_s ~bytes_count:(1 lsl 18) one_way
  in
  let pio = bw Config.default in
  let dma = bw { Config.default with Config.sisci_use_dma = true } in
  in_range ~lo:30.0 ~hi:37.0 "dma bandwidth" dma;
  Alcotest.(check bool) "pio much faster" true (pio > 2.0 *. dma)

let test_rx_interrupt_mode_costs_latency () =
  (* §7 future work, implemented: interrupt-driven receive adds the
     kernel wake-up cost on every message; adaptive keeps polling for
     back-to-back exchanges. *)
  let lat rx_interaction =
    let config = { Config.default with Config.rx_interaction } in
    Time.to_us (pingpong (sisci_world ~config ()) ~bytes_count:4 ~iters:20)
  in
  let poll = lat Config.Rx_poll in
  let intr = lat Config.Rx_interrupt in
  let adaptive = lat (Config.Rx_adaptive Config.default_adaptive_window) in
  Alcotest.(check bool)
    (Printf.sprintf "interrupts slower: %.2f > %.2f + 8" intr poll)
    true
    (intr > poll +. 8.0);
  Alcotest.(check (float 0.5)) "adaptive stays hot" poll adaptive

let test_tcp_latency_sane () =
  let one_way = pingpong (tcp_world ()) ~bytes_count:4 ~iters:20 in
  in_range ~lo:50.0 ~hi:90.0 "mad/tcp latency us" (Time.to_us one_way)

let test_tcp_bandwidth_sane () =
  let n = 1 lsl 19 in
  let one_way = pingpong (tcp_world ()) ~bytes_count:n ~iters:3 in
  let bw = Time.rate_mb_s ~bytes_count:n one_way in
  in_range ~lo:9.0 ~hi:12.0 "mad/tcp bandwidth" bw

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The §5 traffic drivers every measurement runs on, on a bare engine
   whose closures only count, log and sleep. *)

let test_pingpong_rejects_no_iterations () =
  Alcotest.check_raises "iters 0"
    (Invalid_argument "Harness.pingpong: iters < 1") (fun () ->
      ignore
        (Harness.pingpong (Engine.create ()) ~iters:0 ~ping:ignore ~pong:ignore))

let test_pingpong_runs_each_side_iters_times () =
  let pings = ref 0 and pongs = ref 0 in
  let span =
    Harness.pingpong (Engine.create ()) ~iters:5
      ~ping:(fun () ->
        incr pings;
        Engine.sleep (Time.us 2.0))
      ~pong:(fun () -> incr pongs)
  in
  Alcotest.(check int) "ping closure runs" 5 !pings;
  Alcotest.(check int) "pong closure runs" 5 !pongs;
  (* Five 2 us round trips, halved and averaged. *)
  Alcotest.(check int) "one-way span (ns)" 1000 (Time.to_ns span)

let test_one_way_order_and_last_receive () =
  let engine = Engine.create () in
  let log = ref [] and last = ref Time.zero in
  let finish =
    Harness.one_way engine ~messages:4
      ~send:(fun k -> log := Printf.sprintf "send %d" k :: !log)
      ~recv:(fun k ->
        log := Printf.sprintf "recv %d" k :: !log;
        Engine.sleep (Time.us (float_of_int (k + 1)));
        last := Engine.now engine)
  in
  Alcotest.(check (list string))
    "sender spawned first, both in index order"
    [ "send 0"; "send 1"; "send 2"; "send 3";
      "recv 0"; "recv 1"; "recv 2"; "recv 3" ]
    (List.rev !log);
  Alcotest.(check int) "returns the last receive instant" !last finish;
  Alcotest.(check int) "1+2+3+4 us" 10_000 (Time.to_ns finish)

let () =
  Alcotest.run "madeleine"
    [
      ( "roundtrip",
        test_roundtrips "bip" bip_world
        @ test_roundtrips "sisci" sisci_world
        @ test_roundtrips "tcp" tcp_world
        @ test_roundtrips "via" via_world
        @ test_roundtrips "sbp" sbp_world );
      ( "semantics",
        [
          Alcotest.test_case "fig1 express+cheaper" `Quick test_fig1_pattern;
          Alcotest.test_case "send_later" `Quick test_send_later_reads_at_commit;
          Alcotest.test_case "send_safer" `Quick test_send_safer_protects_data;
          Alcotest.test_case "express before end" `Quick
            test_express_available_before_end;
          Alcotest.test_case "tm usage accounting" `Quick
            test_tm_usage_accounting;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "size mismatch" `Quick
            test_symmetry_size_mismatch_detected;
          Alcotest.test_case "mode mismatch" `Quick
            test_symmetry_mode_mismatch_detected;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "message sequence" `Quick
            test_message_sequence_in_order;
          Alcotest.test_case "any source" `Quick test_any_source_unpacking;
          Alcotest.test_case "channel isolation" `Quick
            test_channels_do_not_interfere;
          Alcotest.test_case "bidirectional" `Quick
            test_bidirectional_simultaneous;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "sisci latency 3.9us" `Quick
            test_sisci_latency_calibration;
          Alcotest.test_case "bip latency 7us" `Quick
            test_bip_latency_calibration;
          Alcotest.test_case "sisci bandwidth 82MB/s" `Quick
            test_sisci_bandwidth_calibration;
          Alcotest.test_case "bip bandwidth 122MB/s" `Quick
            test_bip_bandwidth_calibration;
          Alcotest.test_case "sisci dual-buffering kink" `Quick
            test_sisci_dual_buffering_kink;
          Alcotest.test_case "sisci single-slot ablation" `Quick
            test_sisci_single_slot_ablation;
          Alcotest.test_case "sisci dma slower" `Quick test_sisci_dma_is_slower;
          Alcotest.test_case "rx interrupt mode" `Quick
            test_rx_interrupt_mode_costs_latency;
          Alcotest.test_case "tcp latency" `Quick test_tcp_latency_sane;
          Alcotest.test_case "tcp bandwidth" `Quick test_tcp_bandwidth_sane;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "pingpong iters 0" `Quick
            test_pingpong_rejects_no_iterations;
          Alcotest.test_case "pingpong closure counts" `Quick
            test_pingpong_runs_each_side_iters_times;
          Alcotest.test_case "one-way order" `Quick
            test_one_way_order_and_last_receive;
        ] );
    ]
