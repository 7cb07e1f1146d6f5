(* gateway-mix: the paper's §6.2 two-cluster world (SCI node 0, gateway
   1, Myrinet node 2) with one Vchannel at a 16 kB MTU and sched=aggreg.

   - Small traffic, open loop in simulated time: [n_small] messages of
     64 B from rank 0 to rank 2, Poisson arrivals at [rate] msg/s,
     spread over [senders] threads and [senders * flows_per_sender]
     logical flows. Each message has a due time; its latency runs from
     that due time to the receiver's end_unpacking, so a sender held up
     by backpressure charges the wait to every later message. How late
     the senders ran is reported as gen.lag_us.
   - Bulk traffic, closed loop: while small traffic is due, rank 2
     streams 1 MB messages to rank 0 through the same gateway, each
     acknowledged by an 8 B reply before the next leaves.

   Both directions load the gateway at once: the work lands in the
   Vchannel core, Generic TM fragmentation, the gateway pump, Sched and
   the gateway's PCI bus. *)

module H = Harness
module Engine = Marcel.Engine
module Vc = Madeleine.Vchannel

let senders = 100
let flows_per_sender = 40
let small = 64
let rate = 100_000.0
let n_small = 20_000
let bulk = 1 lsl 20
let bulk_pool = 8
let ack_size = 8

type inputs = {
  due : int array;  (** simulated ns *)
  flow : int array;
  by_sender : int array array;  (** message ids per sender, in due order *)
  small_msgs : Bytes.t array;
  bulk_msgs : Bytes.t array;  (** cycled; ids n_small + k *)
}

let prepare ~seed =
  let rng = Work.rng_for ~seed (-1) in
  let t = ref 0.0 in
  let due = Array.make n_small 0 and flow = Array.make n_small 0 in
  let sender = Array.make n_small 0 in
  for i = 0 to n_small - 1 do
    t := !t -. (log (1.0 -. Simnet.Rng.float rng 1.0) /. rate);
    due.(i) <- int_of_float (!t *. 1e9);
    let s = Simnet.Rng.int rng senders in
    sender.(i) <- s;
    flow.(i) <- 1 + s + (senders * Simnet.Rng.int rng flows_per_sender)
  done;
  let by_sender =
    Array.init senders (fun s ->
        Array.of_list
          (List.filter (fun i -> sender.(i) = s) (List.init n_small Fun.id)))
  in
  {
    due;
    flow;
    by_sender;
    small_msgs = Array.init n_small (fun id -> Work.payload ~seed ~id ~size:small);
    bulk_msgs =
      Array.init bulk_pool (fun k ->
          Work.payload ~seed ~id:(n_small + k) ~size:bulk);
  }

let run inp =
  let o = Work.outcome () in
  let w = Work.build o "two_cluster_world" (fun () -> H.two_cluster_world ()) in
  let engine = w.H.cw_engine in
  let vc =
    Work.build o "Vchannel.create" (fun () ->
        Vc.create w.H.cw_session ~mtu:16384 ~sched:(Madeleine.Sched.aggreg ())
          [ w.H.ch_sci; w.H.ch_myri ])
  in
  let now () = Engine.now engine in
  let t_end = inp.due.(n_small - 1) in
  let seen = Array.make n_small false in
  let last = ref 0 in
  let lag = Stats.create () and pack_wait = Stats.create () in
  let acks = Marcel.Mailbox.create () in
  let bulk_sent_at = ref 0 and bulk_recv = ref 0 and acks_recv = ref 0 in
  let ack_id k = n_small + bulk_pool + k in
  let delivered () = last := now () in
  (* Open-loop small senders on rank 0. *)
  Array.iteri
    (fun s ids ->
      Engine.spawn engine ~name:(Printf.sprintf "small%d" s) (fun () ->
          Array.iter
            (fun id ->
              let d = inp.due.(id) in
              if now () < d then Engine.sleep (d - now ());
              let t0 = now () in
              Stats.add lag (Work.us_of_ns (t0 - d));
              o.Work.attempted <- o.Work.attempted + 1;
              Work.vc_send o ~flow:inp.flow.(id) ~tag:"small" vc ~me:0 ~remote:2
                ~msg:id inp.small_msgs.(id);
              Stats.add pack_wait (Work.us_of_ns (now () - t0)))
            ids))
    inp.by_sender;
  (* Rank 2: receives the small messages and the bulk acknowledgements. *)
  Engine.spawn engine ~daemon:true ~name:"rx2" (fun () ->
      while true do
        let sink =
          Work.vc_recv vc ~me:2 ~sink_for:(fun flow ->
              Bytes.create (if flow = 0 then ack_size else small))
        in
        let id = Work.id_of sink in
        if Bytes.length sink = ack_size then begin
          let expected = Bytes.create ack_size in
          Bytes.set_int64_le expected 0 (Int64.of_int (ack_id !acks_recv));
          incr acks_recv;
          if Work.check o ~expected ~got:sink then delivered ();
          Marcel.Mailbox.put acks ()
        end
        else if id < n_small && not seen.(id) then begin
          seen.(id) <- true;
          if Work.check o ~expected:inp.small_msgs.(id) ~got:sink then begin
            delivered ();
            Stats.add o.Work.lat (Work.us_of_ns (now () - inp.due.(id)))
          end
        end
        else o.Work.corrupted <- o.Work.corrupted + 1
      done);
  (* Rank 2: the closed-loop bulk stream. *)
  Engine.spawn engine ~name:"bulk-tx" (fun () ->
      let k = ref 0 in
      while now () < t_end do
        let data = inp.bulk_msgs.(!k mod bulk_pool) in
        o.Work.attempted <- o.Work.attempted + 1;
        bulk_sent_at := now ();
        Work.vc_send o ~tag:"bulk" vc ~me:2 ~remote:0 ~msg:(Work.id_of data) data;
        Marcel.Mailbox.take acks;
        incr k
      done);
  (* Rank 0: receives the bulk stream and acknowledges it. *)
  Engine.spawn engine ~daemon:true ~name:"rx0" (fun () ->
      while true do
        let sink = Work.vc_recv ~tag:"bulk" vc ~me:0 ~sink_for:(fun _ -> Bytes.create bulk) in
        let expected = inp.bulk_msgs.(!bulk_recv mod bulk_pool) in
        incr bulk_recv;
        if Work.check o ~expected ~got:sink then begin
          delivered ();
          Stats.add o.Work.bulk (Work.us_of_ns (now () - !bulk_sent_at));
          o.Work.bulk_bytes <- o.Work.bulk_bytes + bulk
        end;
        let a = Bytes.create ack_size in
        Bytes.set_int64_le a 0 (Int64.of_int (ack_id (!bulk_recv - 1)));
        o.Work.attempted <- o.Work.attempted + 1;
        Work.vc_send o ~tag:"ack" vc ~me:0 ~remote:2 ~msg:(Work.id_of a) a
      done);
  Work.run o engine;
  o.Work.makespan <- !last;
  let gw = w.H.cw_gateway in
  let fwd_packets, fwd_bytes =
    List.fold_left
      (fun (p, b) (_, p', b') -> (p + p', b + b'))
      (0, 0) (Vc.forwarded vc)
  in
  let sched =
    match Vc.sched_stats vc with
    | None -> []
    | Some s ->
        let open Madeleine.Sched in
        [
          ("sched.frames", float_of_int s.sched_frames);
          ("sched.aggregates", float_of_int s.sched_aggregates);
          ( "sched.merged_ratio",
            Work.ratio (float_of_int s.sched_merged) (float_of_int s.sched_frames) );
          ("sched.mean_frames", s.sched_mean_frames);
          ("sched.flush_full", float_of_int s.sched_flush_full);
          ("sched.flush_deadline", float_of_int s.sched_flush_deadline);
          ("sched.flush_flow", float_of_int s.sched_flush_flow);
          ("sched.flush_barrier", float_of_int s.sched_flush_barrier);
        ]
  in
  let layer =
    [
      ("fwd_bw_mb_s", Work.rate_mb_s ~bytes:o.Work.bulk_bytes ~us:(Stats.sum o.Work.bulk));
      ("vchannel.fwd_packets", float_of_int fwd_packets);
      ("vchannel.fwd_bytes", float_of_int fwd_bytes);
      ( "vchannel.fwd_packets_per_msg",
        Work.ratio (float_of_int fwd_packets) (float_of_int o.Work.delivered) );
      ("vchannel.pack_wait_us.p50", Stats.quantile pack_wait 0.5);
      ("vchannel.pack_wait_us.p99", Stats.quantile pack_wait 0.99);
      ("gen.lag_us.p50", Stats.quantile lag 0.5);
      ("gen.lag_us.p99", Stats.quantile lag 0.99);
      ("vchannel.bulk_msg_us.p50", Stats.quantile o.Work.bulk 0.5);
      ("vchannel.bulk_msg_us.p99", Stats.quantile o.Work.bulk 0.99);
      ( "simnet.pci_util.gw",
        Simnet.Fluid.utilization gw.Simnet.Node.pci ~now:(Engine.now engine) );
      ( "simnet.pci_bytes_per_payload_byte",
        Work.ratio (Work.pci_bytes [ gw ]) (float_of_int o.Work.bytes) );
    ]
    @ sched
    @ Work.tm_metrics [ ("sisci", w.H.ch_sci); ("bip", w.H.ch_myri) ]
  in
  (o, layer)
