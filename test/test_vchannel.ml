(* Tests for virtual channels: Generic TM framing, routing, and the
   gateway dual-buffer forwarding pipeline (paper §6). *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Config = Madeleine.Config
module Iface = Madeleine.Iface
module Vc = Madeleine.Vchannel
module Mb = Madeleine.Membership

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

let in_range ?(lo = 0.0) ~hi what v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" what v lo hi)
    true
    (v >= lo && v <= hi)

let make_vc ?mtu ?gateway_overhead ?extra_gateway_copy w =
  Vc.create w.Harness.cw_session ?mtu ?gateway_overhead ?extra_gateway_copy
    [ w.Harness.ch_sci; w.Harness.ch_myri ]

(* The text and order of [Vchannel.create]'s rejections. A call that
   breaks two rules reports the first rule [create] checks, so the
   order is part of the contract too. *)
let test_create_rejections () =
  let w = Harness.two_cluster_world () in
  let rejects msg build =
    Alcotest.check_raises msg (Invalid_argument ("Vchannel.create: " ^ msg))
      (fun () -> ignore (build [ w.Harness.ch_sci; w.Harness.ch_myri ]))
  in
  let create = Vc.create w.Harness.cw_session in
  rejects "credits < 1" (create ~credits:0);
  rejects "gw_pool < 1" (create ~gw_pool:0);
  (* Two rules broken at once. *)
  rejects "credits < 1" (create ~credits:0 ~gw_pool:0)

(* The text and order of [Membership.create]'s rejections, the
   membership rules [Vchannel.create] used to check, in the same order:
   a version below 1, a coordinator outside the rank set, a quorum
   without elections, elections without a fault plane and a quorum out
   of range. *)
let test_membership_create_rejections () =
  let w = Harness.two_cluster_world () in
  let faults = Simnet.Faults.create w.Harness.cw_engine ~seed:1L in
  let channels = [ w.Harness.ch_sci; w.Harness.ch_myri ] in
  let reliable = Vc.create w.Harness.cw_session ~faults channels in
  let plain = Vc.create w.Harness.cw_session channels in
  let rejects msg create =
    Alcotest.check_raises msg
      (Invalid_argument ("Membership.create: " ^ msg))
      (fun () -> ignore (create ()))
  in
  let create ?coordinator ?election ?topo_quorum ~version vc () =
    Mb.create ?coordinator ?election ?topo_quorum ~version vc
  in
  rejects "election requires a fault plane"
    (create ~version:1 ~election:true plain);
  rejects "topo_quorum requires election"
    (create ~version:1 ~topo_quorum:2 reliable);
  rejects "topo_quorum 0 outside 1..3"
    (create ~version:1 ~election:true ~topo_quorum:0 reliable);
  rejects "topo_quorum 4 outside 1..3"
    (create ~version:1 ~election:true ~topo_quorum:4 reliable);
  rejects "topology version < 1" (create ~version:0 plain);
  rejects "coordinator 7 not part of the virtual channel"
    (create ~version:1 ~coordinator:7 plain);
  (* Two rules broken at once. *)
  rejects "topology version < 1" (create ~version:0 ~coordinator:7 plain);
  rejects "topology version < 1" (create ~version:0 ~election:true plain);
  rejects "topo_quorum requires election"
    (create ~version:1 ~topo_quorum:9 reliable);
  rejects "election requires a fault plane"
    (create ~version:1 ~election:true ~topo_quorum:9 plain)

let test_routes () =
  let w = Harness.two_cluster_world () in
  let vc = make_vc w in
  Alcotest.(check (list int)) "ranks" [ 0; 1; 2 ] (Vc.ranks vc);
  Alcotest.(check int) "0->1 direct" 1 (Vc.route_length vc ~src:0 ~dst:1);
  Alcotest.(check int) "0->2 via gw" 2 (Vc.route_length vc ~src:0 ~dst:2);
  Alcotest.(check int) "2->0 via gw" 2 (Vc.route_length vc ~src:2 ~dst:0)

let send_fields vc ~me ~remote fields modes =
  let oc = Vc.begin_packing vc ~me ~remote in
  List.iter2
    (fun data (s_mode, r_mode) -> Vc.pack oc ~s_mode ~r_mode data)
    fields modes;
  Vc.end_packing oc

let recv_fields vc ~me ~remote sinks modes =
  let ic = Vc.begin_unpacking_from vc ~me ~remote in
  List.iter2
    (fun buf (s_mode, r_mode) -> Vc.unpack ic ~s_mode ~r_mode buf)
    sinks modes;
  Vc.end_unpacking ic

let cheaper = (Iface.Send_cheaper, Iface.Receive_cheaper)
let express = (Iface.Send_cheaper, Iface.Receive_express)

let forward_roundtrip ?mtu ~src ~dst fields modes =
  let w = Harness.two_cluster_world () in
  let vc = make_vc ?mtu w in
  let sinks = List.map (fun f -> Bytes.create (Bytes.length f)) fields in
  let finished = ref Time.zero in
  Engine.spawn w.Harness.cw_engine ~name:"sender" (fun () ->
      send_fields vc ~me:src ~remote:dst fields modes);
  Engine.spawn w.Harness.cw_engine ~name:"receiver" (fun () ->
      recv_fields vc ~me:dst ~remote:src sinks modes;
      finished := Engine.now w.Harness.cw_engine);
  Engine.run w.Harness.cw_engine;
  List.iter2
    (fun expect got -> Alcotest.(check bytes) "content" expect got)
    fields sinks;
  !finished

let test_forward_small () =
  ignore (forward_roundtrip ~src:0 ~dst:2 [ payload 100 1L ] [ cheaper ])

let test_forward_counters () =
  let w = Harness.two_cluster_world () in
  let vc = make_vc ~mtu:8192 w in
  Engine.spawn w.Harness.cw_engine ~name:"s" (fun () ->
      send_fields vc ~me:0 ~remote:2 [ payload 20_000 19L ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"r" (fun () ->
      recv_fields vc ~me:2 ~remote:0 [ Bytes.create 20_000 ] [ cheaper ]);
  Engine.run w.Harness.cw_engine;
  match Madeleine.Vchannel.forwarded vc with
  | [ (1, packets, bytes) ] ->
      (* 20008 stream bytes in 8 kB packets = 3 packets. *)
      Alcotest.(check int) "packets" 3 packets;
      Alcotest.(check int) "bytes" 20_008 bytes
  | other ->
      Alcotest.failf "unexpected counters (%d entries)" (List.length other)

let test_forward_multi_packet () =
  (* Much larger than one MTU: exercises fragmentation + pipeline. *)
  ignore
    (forward_roundtrip ~mtu:8192 ~src:0 ~dst:2 [ payload 200_000 2L ]
       [ cheaper ])

let test_forward_reverse_direction () =
  ignore
    (forward_roundtrip ~mtu:8192 ~src:2 ~dst:0 [ payload 100_000 3L ]
       [ cheaper ])

let test_forward_multi_field () =
  ignore
    (forward_roundtrip ~mtu:4096 ~src:0 ~dst:2
       [ payload 4 4L; payload 50_000 5L; payload 17 6L ]
       [ express; cheaper; cheaper ])

(* Several packs per message whose sub-headers and data straddle the
   MTU boundary in every way — a pack ending just short of it, one
   crossing it, one filling it exactly, an empty one — over the gateway
   route, with and without the aggregating scheduler (which keeps the
   staged packets as frames). Every field must arrive bit-identical. *)
let test_multi_pack_straddles_mtu () =
  let mtu = 1024 in
  let messages =
    [
      [ payload 1000 31L; payload 40 32L; payload 2000 33L ];
      [ payload 4 34L; payload (mtu - 12) 35L; payload 0 36L; payload 5 37L ];
      [ payload 3 38L; payload 3 39L; payload 3 40L; payload 3000 41L ];
    ]
  in
  List.iter
    (fun sched ->
      let w = Harness.two_cluster_world () in
      let vc =
        Vc.create w.Harness.cw_session ~mtu ?sched
          [ w.Harness.ch_sci; w.Harness.ch_myri ]
      in
      let got = ref [] in
      let modes fields = List.map (fun _ -> cheaper) fields in
      Engine.spawn w.Harness.cw_engine ~name:"sender" (fun () ->
          List.iter
            (fun fields -> send_fields vc ~me:0 ~remote:2 fields (modes fields))
            messages);
      Engine.spawn w.Harness.cw_engine ~name:"receiver" (fun () ->
          List.iter
            (fun fields ->
              let sinks =
                List.map (fun f -> Bytes.create (Bytes.length f)) fields
              in
              recv_fields vc ~me:2 ~remote:0 sinks (modes fields);
              got := sinks :: !got)
            messages);
      Engine.run w.Harness.cw_engine;
      List.iter2
        (List.iter2 (fun expect got ->
             Alcotest.(check bytes) "content" expect got))
        messages (List.rev !got))
    [ None; Some (Madeleine.Sched.aggreg ()) ]

let test_single_hop_vchannel () =
  (* A virtual channel degenerates gracefully to one real channel. *)
  ignore (forward_roundtrip ~src:0 ~dst:1 [ payload 30_000 7L ] [ cheaper ])

let test_message_sequence_through_gateway () =
  let w = Harness.two_cluster_world () in
  let vc = make_vc ~mtu:4096 w in
  let got = ref [] in
  Engine.spawn w.Harness.cw_engine ~name:"sender" (fun () ->
      for i = 1 to 5 do
        let b = Bytes.create 2000 in
        Bytes.set_int64_le b 0 (Int64.of_int i);
        send_fields vc ~me:0 ~remote:2 [ b ] [ cheaper ]
      done);
  Engine.spawn w.Harness.cw_engine ~name:"receiver" (fun () ->
      for _ = 1 to 5 do
        let b = Bytes.create 2000 in
        recv_fields vc ~me:2 ~remote:0 [ b ] [ cheaper ];
        got := Int64.to_int (Bytes.get_int64_le b 0) :: !got
      done);
  Engine.run w.Harness.cw_engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_any_source_through_gateway () =
  let w = Harness.two_cluster_world () in
  let vc = make_vc w in
  let seen = ref [] in
  Engine.spawn w.Harness.cw_engine ~name:"sender0" (fun () ->
      Engine.sleep (Time.us 300.0);
      send_fields vc ~me:0 ~remote:2 [ Bytes.make 8 'a' ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"sender1" (fun () ->
      send_fields vc ~me:1 ~remote:2 [ Bytes.make 8 'g' ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"receiver" (fun () ->
      for _ = 1 to 2 do
        let ic = Vc.begin_unpacking vc ~me:2 in
        let b = Bytes.create 8 in
        Vc.unpack ic b;
        Vc.end_unpacking ic;
        seen := (Vc.remote_rank ic, Bytes.get b 0) :: !seen
      done);
  Engine.run w.Harness.cw_engine;
  Alcotest.(check (list (pair int char)))
    "arrival order" [ (1, 'g'); (0, 'a') ] (List.rev !seen)

let test_self_description_catches_asymmetry () =
  let w = Harness.two_cluster_world () in
  let vc = make_vc w in
  Engine.spawn w.Harness.cw_engine ~name:"sender" (fun () ->
      send_fields vc ~me:0 ~remote:2 [ Bytes.create 64 ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      match Vc.unpack ic (Bytes.create 32) with
      | () -> Alcotest.fail "expected Symmetry_violation"
      | exception Config.Symmetry_violation _ -> ());
  Engine.run w.Harness.cw_engine

let test_unconsumed_data_detected () =
  let w = Harness.two_cluster_world () in
  let vc = make_vc w in
  Engine.spawn w.Harness.cw_engine ~name:"sender" (fun () ->
      send_fields vc ~me:0 ~remote:2
        [ Bytes.create 64; Bytes.create 64 ]
        [ cheaper; cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      Vc.unpack ic (Bytes.create 64);
      match Vc.end_unpacking ic with
      | () -> Alcotest.fail "expected Symmetry_violation"
      | exception Config.Symmetry_violation _ -> ());
  Engine.run w.Harness.cw_engine

(* ------------------------------------------------------------------ *)
(* Longer chains and other network mixes *)

(* Three clusters in a chain: SCI {0,1}, Myrinet {1,2}, TCP {2,3} —
   two gateways, three different interfaces. *)
let three_cluster_world ~mtu =
  let cf =
    Clusterfile.load
      (Printf.sprintf
         {|
network sci  type=sisci
network myri type=bip
network eth  type=tcp
node n0 nets=sci
node n1 nets=sci,myri
node n2 nets=myri,eth
node n3 nets=eth
channel  c-sci  net=sci  nodes=n0,n1
channel  c-myri net=myri nodes=n1,n2
channel  c-eth  net=eth  nodes=n2,n3
vchannel vc channels=c-sci,c-myri,c-eth mtu=%d
|}
         mtu)
  in
  (Clusterfile.engine cf, Clusterfile.vchannel cf "vc")

let test_two_gateway_chain () =
  let engine, vc = three_cluster_world ~mtu:8192 in
  Alcotest.(check int) "0->3 is three hops" 3 (Vc.route_length vc ~src:0 ~dst:3);
  let data = payload 50_000 21L in
  let sink = Bytes.create 50_000 in
  Engine.spawn engine ~name:"sender" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:3 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic);
  Engine.run engine;
  Alcotest.(check bytes) "content across two gateways" data sink

let test_two_gateway_chain_reverse_and_middle () =
  let engine, vc = three_cluster_world ~mtu:4096 in
  let d30 = payload 9_000 22L and d12 = payload 3_000 23L in
  let s30 = Bytes.create 9_000 and s12 = Bytes.create 3_000 in
  Engine.spawn engine ~name:"s3" (fun () ->
      let oc = Vc.begin_packing vc ~me:3 ~remote:0 in
      Vc.pack oc d30;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"s1" (fun () ->
      let oc = Vc.begin_packing vc ~me:1 ~remote:2 in
      Vc.pack oc d12;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"r0" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:0 ~remote:3 in
      Vc.unpack ic s30;
      Vc.end_unpacking ic);
  Engine.spawn engine ~name:"r2" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:1 in
      Vc.unpack ic s12;
      Vc.end_unpacking ic);
  Engine.run engine;
  Alcotest.(check bytes) "3->0" d30 s30;
  Alcotest.(check bytes) "1->2 single hop" d12 s12

(* Both networks static-buffered (SBP and VIA): the §6.1 worst case. *)
let test_static_static_gateway () =
  let cf =
    Clusterfile.load
      {|
network eth-a type=sbp
network eth-b type=via
node n0 nets=eth-a
node n1 nets=eth-a,eth-b
node n2 nets=eth-b
channel  c-sbp net=eth-a nodes=n0,n1
channel  c-via net=eth-b nodes=n1,n2
vchannel vc channels=c-sbp,c-via mtu=4096
|}
  in
  let engine = Clusterfile.engine cf and vc = Clusterfile.vchannel cf "vc" in
  let data = payload 20_000 24L in
  let sink = Bytes.create 20_000 in
  Engine.spawn engine ~name:"sender" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic);
  Engine.run engine;
  Alcotest.(check bytes) "content through static-static gateway" data sink

(* ------------------------------------------------------------------ *)
(* Forwarding bandwidth (Figs. 10 and 11) *)

let forwarding_bandwidth = Harness.forwarding_bandwidth

let test_fig10_sci_to_myrinet_shape () =
  (* Fig. 10: 36.5 MB/s at 8 kB packets, rising toward ~49.5 at 128 kB. *)
  let bw8 = forwarding_bandwidth ~mtu:8192 ~src:0 ~dst:2 ~bytes_count:(1 lsl 20) () in
  let bw128 =
    forwarding_bandwidth ~mtu:(128 * 1024) ~src:0 ~dst:2
      ~bytes_count:(1 lsl 20) ()
  in
  in_range ~lo:32.0 ~hi:41.0 "sci->myri at 8kB" bw8;
  in_range ~lo:44.0 ~hi:53.0 "sci->myri at 128kB" bw128;
  Alcotest.(check bool) "monotone" true (bw128 > bw8)

let test_fig11_myrinet_to_sci_shape () =
  (* Fig. 11: 29 MB/s at 8 kB, under 36.5 asymptotically — the Myrinet
     DMA's PCI priority starves the gateway's SCI PIO sends. *)
  let bw8 = forwarding_bandwidth ~mtu:8192 ~src:2 ~dst:0 ~bytes_count:(1 lsl 20) () in
  let bw128 =
    forwarding_bandwidth ~mtu:(128 * 1024) ~src:2 ~dst:0
      ~bytes_count:(1 lsl 20) ()
  in
  in_range ~lo:25.0 ~hi:33.0 "myri->sci at 8kB" bw8;
  in_range ~lo:32.0 ~hi:40.0 "myri->sci at 128kB" bw128

let test_direction_asymmetry () =
  (* The PCI arbitration asymmetry: SCI->Myrinet beats Myrinet->SCI. *)
  let fwd = forwarding_bandwidth ~mtu:(64 * 1024) ~src:0 ~dst:2 ~bytes_count:(1 lsl 20) () in
  let rev = forwarding_bandwidth ~mtu:(64 * 1024) ~src:2 ~dst:0 ~bytes_count:(1 lsl 20) () in
  Alcotest.(check bool)
    (Printf.sprintf "fwd %.1f > rev %.1f" fwd rev)
    true (fwd > rev *. 1.1)

let test_gateway_overhead_hurts () =
  (* Moderate overhead changes are partially absorbed by reduced PCI
     contention (an idler gateway forwards each packet faster), so the
     contrast only becomes decisive for large overheads. *)
  let fast =
    forwarding_bandwidth ~gateway_overhead:(Time.us 10.0) ~mtu:8192 ~src:0
      ~dst:2 ~bytes_count:(1 lsl 19) ()
  in
  let slow =
    forwarding_bandwidth ~gateway_overhead:(Time.us 400.0) ~mtu:8192 ~src:0
      ~dst:2 ~bytes_count:(1 lsl 19) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "overhead hurts: %.1f > %.1f" fast slow)
    true (fast > slow *. 1.5)

let test_bidirectional_forwarding () =
  (* Both directions stream 512 kB through the same gateway at once: the
     pump's shared buffers must not deadlock, and both payloads arrive
     intact. *)
  let w = Harness.two_cluster_world () in
  let vc = make_vc ~mtu:16384 w in
  let n = 1 lsl 19 in
  let d02 = payload n 61L and d20 = payload n 62L in
  let s02 = Bytes.create n and s20 = Bytes.create n in
  Engine.spawn w.Harness.cw_engine ~name:"s0" (fun () ->
      send_fields vc ~me:0 ~remote:2 [ d02 ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"s2" (fun () ->
      send_fields vc ~me:2 ~remote:0 [ d20 ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"r2" (fun () ->
      recv_fields vc ~me:2 ~remote:0 [ s02 ] [ cheaper ]);
  Engine.spawn w.Harness.cw_engine ~name:"r0" (fun () ->
      recv_fields vc ~me:0 ~remote:2 [ s20 ] [ cheaper ]);
  Engine.run w.Harness.cw_engine;
  Alcotest.(check bytes) "0->2 intact" d02 s02;
  Alcotest.(check bytes) "2->0 intact" d20 s20;
  (* Aggregate must stay under the gateway bus's contended capacity. *)
  let agg =
    Time.rate_mb_s ~bytes_count:(2 * n) (Engine.now w.Harness.cw_engine)
  in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.1f MB/s under bus capacity" agg)
    true (agg < 101.0)

let test_ingress_regulation_helps_reverse_direction () =
  (* The paper's future-work bandwidth control, validated: pacing the
     Myrinet ingress on the gateway stops its DMA from starving the
     outgoing SCI PIO, and net throughput goes UP. *)
  let unregulated =
    forwarding_bandwidth ~mtu:32768 ~src:2 ~dst:0 ~bytes_count:(1 lsl 20) ()
  in
  let regulated =
    forwarding_bandwidth ~ingress_cap_mb_s:45.0 ~mtu:32768 ~src:2 ~dst:0
      ~bytes_count:(1 lsl 20) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "regulated %.1f > unregulated %.1f MB/s" regulated
       unregulated)
    true
    (regulated > unregulated *. 1.1)

let test_extra_copy_hurts () =
  let zero_copy =
    forwarding_bandwidth ~mtu:(32 * 1024) ~src:0 ~dst:2
      ~bytes_count:(1 lsl 19) ()
  in
  let one_copy =
    forwarding_bandwidth ~extra_gateway_copy:true ~mtu:(32 * 1024) ~src:0
      ~dst:2 ~bytes_count:(1 lsl 19) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "copy hurts: %.1f > %.1f" zero_copy one_copy)
    true (zero_copy > one_copy)

(* Ranks outside the channel, whether a hole below its highest rank, a
   rank above it or a negative one, get the typed errors of the rank
   checks, never an array bounds error. *)
let test_ranks_outside_channel () =
  let cf =
    Clusterfile.load
      {|
faults  seed=1
network eth type=tcp
node n0 nets=eth
node n1 nets=eth
node n2 nets=eth
channel  c  net=eth nodes=n0,n2
vchannel vc channels=c reliable=true version=1
|}
  in
  let vc = Clusterfile.vchannel cf "vc" in
  let m = Option.get (Clusterfile.membership cf "vc") in
  Alcotest.(check (list int)) "ranks" [ 0; 2 ] (Vc.ranks vc);
  Alcotest.check_raises "route_length names both ranks"
    (Invalid_argument
       "Vchannel.route_length: rank 0 or 1 not part of the virtual channel \
        (ranks 0,2)")
    (fun () -> ignore (Vc.route_length vc ~src:0 ~dst:1));
  let rejected ?(prefix = "Vchannel.") what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (what ^ " names the module") true
          (String.starts_with ~prefix msg)
  in
  List.iter
    (fun r ->
      rejected "route_via" (fun () -> ignore (Vc.route_via vc ~src:r ~dst:0));
      rejected "peer_status" (fun () ->
          ignore (Vc.peer_status vc ~src:0 ~dst:r));
      rejected "begin_packing" (fun () ->
          ignore (Vc.begin_packing vc ~me:0 ~remote:r));
      rejected "begin_unpacking" (fun () ->
          ignore (Vc.begin_unpacking vc ~me:r));
      rejected "begin_unpacking_from" (fun () ->
          ignore (Vc.begin_unpacking_from vc ~me:0 ~remote:r));
      rejected "send_col" (fun () -> Vc.send_col vc ~src:r ~dst:0 Bytes.empty);
      rejected ~prefix:"Membership." "join" (fun () ->
          ignore (Mb.join m ~rank:r));
      Alcotest.(check bool) "not alive" false (Vc.rank_alive vc r);
      Alcotest.(check bool) "not overloaded" false (Vc.rank_overloaded vc r);
      Alcotest.(check bool) "no sentinel" true (Vc.sentinel vc ~rank:r = None);
      Alcotest.(check bool) "quorum without elections" true
        (Vc.has_quorum vc ~viewer:r))
    [ 1; 3; -1 ]

let () =
  Alcotest.run "vchannel"
    [
      ( "routing",
        [
          Alcotest.test_case "routes" `Quick test_routes;
          Alcotest.test_case "create rejections" `Quick test_create_rejections;
          Alcotest.test_case "membership create rejections" `Quick
            test_membership_create_rejections;
          Alcotest.test_case "ranks outside the channel" `Quick
            test_ranks_outside_channel;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "small" `Quick test_forward_small;
          Alcotest.test_case "forward counters" `Quick test_forward_counters;
          Alcotest.test_case "multi packet" `Quick test_forward_multi_packet;
          Alcotest.test_case "reverse" `Quick test_forward_reverse_direction;
          Alcotest.test_case "multi field" `Quick test_forward_multi_field;
          Alcotest.test_case "multi pack straddles mtu" `Quick
            test_multi_pack_straddles_mtu;
          Alcotest.test_case "single hop" `Quick test_single_hop_vchannel;
          Alcotest.test_case "message sequence" `Quick
            test_message_sequence_through_gateway;
          Alcotest.test_case "any source" `Quick
            test_any_source_through_gateway;
        ] );
      ( "chains",
        [
          Alcotest.test_case "two gateways" `Quick test_two_gateway_chain;
          Alcotest.test_case "reverse and middle" `Quick
            test_two_gateway_chain_reverse_and_middle;
          Alcotest.test_case "static-static gateway" `Quick
            test_static_static_gateway;
        ] );
      ( "self description",
        [
          Alcotest.test_case "asymmetry" `Quick
            test_self_description_catches_asymmetry;
          Alcotest.test_case "unconsumed" `Quick test_unconsumed_data_detected;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "fig10 shape" `Quick test_fig10_sci_to_myrinet_shape;
          Alcotest.test_case "fig11 shape" `Quick test_fig11_myrinet_to_sci_shape;
          Alcotest.test_case "direction asymmetry" `Quick
            test_direction_asymmetry;
          Alcotest.test_case "gateway overhead" `Quick
            test_gateway_overhead_hurts;
          Alcotest.test_case "extra copy" `Quick test_extra_copy_hurts;
          Alcotest.test_case "ingress regulation" `Quick
            test_ingress_regulation_helps_reverse_direction;
          Alcotest.test_case "bidirectional forwarding" `Quick
            test_bidirectional_forwarding;
        ] );
    ]
