(* Tests for the pluggable packet scheduler (Sched) and its integration
   with virtual channels: per-flow FIFO under aggregation, the aggr_max
   wire budget, composition with credits and TCP reliability, and
   the absence of scheduler state when none is set. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Faults = Simnet.Faults
module Sched = Madeleine.Sched
module Vc = Madeleine.Vchannel

let payload_of ~size ~flow m =
  Harness.payload size (Int64.of_int ((flow * 1000) + m))

(* Run [flows] concurrent logical flows of [messages] x [size] bytes
   from rank 0 to rank 2 across the two-cluster gateway world, checking
   per-flow order and content, and return the vchannel for stats. *)
let flows_workload ?credits ?sched ?(flow_ids = true) ~flows ~messages ~size ()
    =
  let w = Harness.two_cluster_world () in
  let vc =
    Vc.create w.Harness.cw_session ?credits ?sched
      [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let engine = w.Harness.cw_engine in
  let intact = ref true in
  let finish = ref Time.zero in
  let done_flows = ref 0 in
  for flow = 1 to flows do
    (* Non-zero flow ids only exist with an aggregating scheduler; the
       inertness tests run their single flow as flow 0. *)
    let flow = if flow_ids then flow else 0 in
    Engine.spawn engine ~name:(Printf.sprintf "send-%d" flow) (fun () ->
        for m = 0 to messages - 1 do
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:2 in
          Vc.pack oc (payload_of ~size ~flow m);
          Vc.end_packing oc
        done);
    Engine.spawn engine ~name:(Printf.sprintf "recv-%d" flow) (fun () ->
        let sink = Bytes.create size in
        for m = 0 to messages - 1 do
          let ic = Vc.begin_unpacking_from vc ~flow ~me:2 ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          if not (Bytes.equal sink (payload_of ~size ~flow m)) then
            intact := false
        done;
        incr done_flows;
        if !done_flows = flows then finish := Engine.now engine)
  done;
  Engine.run engine;
  (vc, !intact, !finish)

let test_per_flow_fifo_under_merge () =
  let vc, intact, _ =
    flows_workload
      ~sched:(Sched.aggreg ())
      ~flows:8 ~messages:6 ~size:128 ()
  in
  Alcotest.(check bool) "every flow in order, bit-identical" true intact;
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "frames actually merged" true
    (ss.Sched.sched_merged > 0);
  Alcotest.(check bool) "aggregates emitted" true (ss.Sched.sched_aggregates > 0)

let test_aggr_max_bounds_aggregates () =
  (* 64-byte frames cost 72 wire bytes; a 300-byte budget holds at most
     4 of them, so the mean train length must stay under 4 and at least
     one flush must have been forced by the budget. *)
  let vc, intact, _ =
    flows_workload
      ~sched:(Sched.aggreg ~aggr_max:300 ())
      ~flows:8 ~messages:4 ~size:64 ()
  in
  Alcotest.(check bool) "intact" true intact;
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "merged" true (ss.Sched.sched_merged > 0);
  Alcotest.(check bool) "budget forced a flush" true
    (ss.Sched.sched_flush_full >= 1);
  Alcotest.(check bool) "mean train respects the budget" true
    (ss.Sched.sched_mean_frames <= 4.0)

let test_credits_split_aggregates () =
  (* A 2-packet credit window against trains of up to 8 data frames:
     emission must split each train so no aggregate charges more than
     the budget (a longer train would deadlock waiting on its own
     grants), the sender must actually stall, and delivery stays
     intact. *)
  let vc, intact, _ =
    flows_workload ~credits:2
      ~sched:(Sched.aggreg ())
      ~flows:4 ~messages:8 ~size:2048 ()
  in
  Alcotest.(check bool) "intact under a tiny credit window" true intact;
  let cs = match Vc.credit_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "sender ran out of credits" true (cs.Vc.stalls > 0);
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "aggregates still emitted" true
    (ss.Sched.sched_aggregates > 0)

let test_flow_needs_scheduler () =
  let w = Harness.two_cluster_world () in
  let vc =
    Vc.create w.Harness.cw_session [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let rejected = ref false in
  Engine.spawn w.Harness.cw_engine ~name:"bad-flow" (fun () ->
      match Vc.begin_packing vc ~flow:7 ~me:0 ~remote:2 with
      | exception Invalid_argument _ -> rejected := true
      | _ -> ());
  Engine.run w.Harness.cw_engine;
  Alcotest.(check bool) "non-zero flow without sched=aggreg rejected" true
    !rejected;
  Alcotest.(check bool) "no scheduler state" true (Vc.sched_stats vc = None)

let test_barrier_flush () =
  (* A lone small message waits in the aggregation buffer for its
     10 ms deadline unless a barrier flush ships it: arrival well before
     the deadline, one barrier flush and no deadline flush show that
     Vchannel.flush, not the timer, put it on the wire. *)
  let w = Harness.two_cluster_world () in
  let aggr_flush = Time.ms 10.0 in
  let vc =
    Vc.create w.Harness.cw_session
      ~sched:(Sched.aggreg ~aggr_flush ())
      [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let engine = w.Harness.cw_engine in
  let msg = payload_of ~size:64 ~flow:0 0 in
  let arrived = ref None in
  Engine.spawn engine ~name:"send" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
      Vc.pack oc msg;
      Vc.end_packing oc;
      Vc.flush vc ~me:0);
  Engine.spawn engine ~name:"recv" (fun () ->
      let sink = Bytes.create 64 in
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic;
      if Bytes.equal sink msg then arrived := Some (Engine.now engine));
  Engine.run engine;
  (match !arrived with
  | None -> Alcotest.fail "message lost or corrupted"
  | Some at ->
      Alcotest.(check bool) "arrives before the aggr_flush deadline" true
        (Time.( < ) at (Time.add Time.zero aggr_flush)));
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check int) "one barrier flush" 1 ss.Sched.sched_flush_barrier;
  Alcotest.(check int) "no deadline flush" 0 ss.Sched.sched_flush_deadline

(* Gateway crash with aggregates in flight: the redundant-gateway world
   of the chaos failover scenario, but the stream is many small logical
   flows on a sched=aggreg vchannel. The crash lands mid-stream, so
   unacked aggregates are re-emitted whole over the surviving gateway;
   delivery must stay exactly-once and bit-identical on every flow. *)
let test_gateway_crash_reemits_aggregates () =
  let cf =
    Clusterfile.load
      {|
faults  seed=11
network ethA type=tcp
network ethB type=tcp
node n0 nets=ethA
node n1 nets=ethA,ethB
node n2 nets=ethA,ethB
node n3 nets=ethB
channel  c-a net=ethA nodes=n0,n1,n2
channel  c-b net=ethB nodes=n1,n2,n3
vchannel vc  channels=c-a,c-b mtu=4096 reliable=true sched=aggreg
|}
  in
  let engine = Clusterfile.engine cf and vc = Clusterfile.vchannel cf "vc" in
  let faults = Option.get (Clusterfile.faults cf) in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let flows = 4 and messages = 4 and size = 256 in
  let received = Hashtbl.create 16 in
  let intact = ref true in
  let arrivals = ref 0 in
  for flow = 1 to flows do
    Engine.spawn engine ~name:(Printf.sprintf "fo-send-%d" flow) (fun () ->
        for m = 0 to messages - 1 do
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:3 in
          Vc.pack oc (payload_of ~size ~flow m);
          Vc.end_packing oc
        done);
    Engine.spawn engine ~name:(Printf.sprintf "fo-recv-%d" flow) (fun () ->
        let sink = Bytes.create size in
        for m = 0 to messages - 1 do
          let ic = Vc.begin_unpacking_from vc ~flow ~me:3 ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          if not (Bytes.equal sink (payload_of ~size ~flow m)) then
            intact := false;
          Hashtbl.replace received (flow, m)
            (1 + try Hashtbl.find received (flow, m) with Not_found -> 0);
          incr arrivals;
          (* Crash the first-hop gateway while later aggregates are
             still in flight. *)
          if !arrivals = 1 then Faults.crash_now faults ~node:gw ()
        done)
  done;
  Engine.run engine;
  Alcotest.(check bool) "bit-identical on every flow" true !intact;
  Alcotest.(check int) "exactly-once delivery" (flows * messages)
    (Hashtbl.fold (fun _ n acc -> acc + n) received 0);
  Hashtbl.iter
    (fun (flow, m) n ->
      if n <> 1 then
        Alcotest.failf "message (flow %d, %d) delivered %d times" flow m n)
    received;
  let rs = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "unacked aggregates re-emitted" true
    (rs.Vc.reemitted >= 1)

let test_chaos_drop_bit_identical () =
  let sc =
    (Option.get (Chaos.find "sched-aggreg")).Chaos.run ~seed:7 ~quick:true
  in
  Alcotest.(check bool) "intact under 1% drop" true
    (List.assoc "sched-aggreg-intact" sc.Chaos.gates);
  Alcotest.(check bool) "merged under 1% drop" true
    (List.assoc "sched-aggreg-merged" sc.Chaos.gates)

let () =
  Alcotest.run "sched"
    [
      ( "aggregation",
        [
          Alcotest.test_case "per-flow FIFO under merge" `Quick
            test_per_flow_fifo_under_merge;
          Alcotest.test_case "aggr_max bounds aggregates" `Quick
            test_aggr_max_bounds_aggregates;
          Alcotest.test_case "credits split aggregates" `Quick
            test_credits_split_aggregates;
          Alcotest.test_case "barrier flush ships before the deadline" `Quick
            test_barrier_flush;
          Alcotest.test_case "flow needs scheduler" `Quick
            test_flow_needs_scheduler;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "gateway crash re-emits aggregates" `Quick
            test_gateway_crash_reemits_aggregates;
          Alcotest.test_case "chaos 1% drop bit-identical" `Quick
            test_chaos_drop_bit_identical;
        ] );
    ]
