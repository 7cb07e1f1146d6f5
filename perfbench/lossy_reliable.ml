(* lossy-reliable: a reliable Vchannel (~faults, 4 kB MTU) over two
   Fast-Ethernet TCP segments joined by one gateway (0 -ethA- 1 -ethB-
   2), every link dropping [drop] of its fragments. Closed-loop ping-pongs
   of 15.5-16 kB (seeded sizes, so the loss-free latency is not one
   value) between the end nodes, repeated over [worlds] independent
   worlds whose fault seeds derive from the workload seed. Every message
   is both latency and bulk class.

   The work moves into the layers the other workloads never touch:
   Tcpnet go-back-N, RTO and CRC; Vchannel sequence numbers, acks and
   unacknowledged-packet logs; Sentinel heartbeats. *)

module Engine = Marcel.Engine
module Vc = Madeleine.Vchannel
module Faults = Simnet.Faults
module Fabric = Simnet.Fabric
module Node = Simnet.Node

let worlds = 32
let round_trips = 75
let size = 16384
let drop = 0.01

type inputs = { msgs : Bytes.t array; fault_seeds : int64 array }

let prepare ~seed =
  let rng = Work.rng_for ~seed (-1) in
  let fault_seeds = Array.init worlds (fun _ -> Simnet.Rng.next_int64 rng) in
  let msgs =
    Array.init round_trips (fun id ->
        Work.payload ~seed ~id ~size:(size - (8 * Simnet.Rng.int rng 64)))
  in
  { msgs; fault_seeds }

type world = {
  engine : Engine.t;
  faults : Faults.t;
  nets : Tcpnet.net list;
  nodes : Node.t list;
  channels : Madeleine.Channel.t list;
  vc : Vc.t;
}

let make_world ~fault_seed =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed:fault_seed in
  let nodes =
    Array.init 3 (fun i -> Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i)
  in
  let segment name ranks =
    let fab = Fabric.create engine ~name ~link:Simnet.Netparams.fast_ethernet in
    Fabric.set_faults fab faults;
    List.iter
      (fun i ->
        Fabric.attach fab nodes.(i);
        Faults.set_drop faults ~fabric:name ~node:i ~rate:drop)
      ranks;
    let net = Tcpnet.make_net engine fab in
    let stacks = List.map (fun i -> (i, Tcpnet.attach net nodes.(i))) ranks in
    (net, Madeleine.Pmm_tcp.driver (fun r -> List.assoc r stacks), ranks)
  in
  let segs = [ segment "ethA" [ 0; 1 ]; segment "ethB" [ 1; 2 ] ] in
  let session = Madeleine.Session.create engine in
  let channels =
    List.map (fun (_, drv, ranks) -> Madeleine.Channel.create session drv ~ranks ()) segs
  in
  {
    engine;
    faults;
    nets = List.map (fun (net, _, _) -> net) segs;
    nodes = Array.to_list nodes;
    channels;
    vc = Vc.create session ~mtu:4096 ~faults channels;
  }

(* Counters summed (or maxed) over the worlds of one repetition. *)
type counters = {
  mutable dropped : int;
  mutable hb_lost : int;
  mutable rexmit : int;
  mutable crc : int;
  mutable handshakes : int;
  mutable inbox_peak : int;
  mutable sendq_peak : int;
  mutable reroutes : int;
  mutable reemitted : int;
  mutable dup_drops : int;
  mutable unacked_peak : int;
  mutable suspicions : int;
  mutable pci : float;
}

let collect c w =
  let fs = Faults.stats w.faults in
  c.dropped <- c.dropped + fs.Faults.frames_dropped;
  c.hb_lost <- c.hb_lost + fs.Faults.heartbeats_lost;
  List.iter
    (fun net ->
      let r, crc = Tcpnet.net_stats net in
      let inbox, sendq = Tcpnet.queue_peaks net in
      c.rexmit <- c.rexmit + r;
      c.crc <- c.crc + crc;
      c.handshakes <- c.handshakes + Tcpnet.net_handshakes net;
      c.inbox_peak <- max c.inbox_peak inbox;
      c.sendq_peak <- max c.sendq_peak sendq)
    w.nets;
  (match Vc.rel_stats w.vc with
  | None -> ()
  | Some r ->
      c.reroutes <- c.reroutes + r.Vc.reroutes;
      c.reemitted <- c.reemitted + r.Vc.reemitted;
      c.dup_drops <- c.dup_drops + r.Vc.dup_drops);
  List.iter
    (fun q ->
      if q.Vc.q_point = "unacked_packets" then
        c.unacked_peak <- max c.unacked_peak q.Vc.q_peak)
    (Vc.queue_stats w.vc);
  List.iter
    (fun (_, ev) ->
      match ev.Madeleine.Sentinel.ev_to with
      | Madeleine.Sentinel.Degraded | Madeleine.Sentinel.Down ->
          c.suspicions <- c.suspicions + 1
      | _ -> ())
    (Vc.suspicion_timeline w.vc);
  c.pci <- c.pci +. Work.pci_bytes w.nodes

let run inp =
  let o = Work.outcome () in
  let c =
    {
      dropped = 0;
      hb_lost = 0;
      rexmit = 0;
      crc = 0;
      handshakes = 0;
      inbox_peak = 0;
      sendq_peak = 0;
      reroutes = 0;
      reemitted = 0;
      dup_drops = 0;
      unacked_peak = 0;
      suspicions = 0;
      pci = 0.0;
    }
  in
  let tm = ref [] in
  Array.iter
    (fun fault_seed ->
      let w = Work.build o "lossy_world" (fun () -> make_world ~fault_seed) in
      let engine = w.engine and vc = w.vc in
      let now () = Engine.now engine in
      let sent_at = ref 0 and last = ref 0 in
      let sample data dt =
        last := now ();
        Stats.add o.Work.lat (Work.us_of_ns dt);
        Stats.add o.Work.bulk (Work.us_of_ns dt);
        o.Work.bulk_bytes <- o.Work.bulk_bytes + Bytes.length data
      in
      Engine.spawn engine ~name:"ping" (fun () ->
          Array.iteri
            (fun msg data ->
              sent_at := now ();
              Work.vc_send o vc ~me:0 ~remote:2 ~msg data;
              let sink =
                Work.vc_recv vc ~from:2 ~me:0 ~sink_for:(fun _ -> Bytes.create (Bytes.length data))
              in
              if Work.check o ~expected:data ~got:sink then sample data (now () - !sent_at))
            inp.msgs);
      Engine.spawn engine ~name:"pong" (fun () ->
          Array.iteri
            (fun msg data ->
              let sink =
                Work.vc_recv vc ~from:0 ~me:2 ~sink_for:(fun _ -> Bytes.create (Bytes.length data))
              in
              if Work.check o ~expected:data ~got:sink then sample data (now () - !sent_at);
              sent_at := now ();
              Work.vc_send o vc ~me:2 ~remote:0 ~msg sink)
            inp.msgs);
      o.Work.attempted <- o.Work.attempted + (2 * round_trips);
      Work.run o engine;
      o.Work.makespan <- o.Work.makespan + !last;
      collect c w;
      tm := Work.tm_metrics (List.map (fun ch -> ("tcp", ch)) w.channels) :: !tm)
    inp.fault_seeds;
  let f = float_of_int in
  let layer =
    [
      ("faults.frames_dropped", f c.dropped);
      ("faults.heartbeats_lost", f c.hb_lost);
      ("tcpnet.retransmissions", f c.rexmit);
      ("tcpnet.crc_rejects", f c.crc);
      ("tcpnet.handshakes", f c.handshakes);
      ("tcpnet.inbox_peak", f c.inbox_peak);
      ("tcpnet.sendq_peak", f c.sendq_peak);
      ("tcpnet.rexmit_per_drop", Work.ratio (f c.rexmit) (f c.dropped));
      ("vchannel.reroutes", f c.reroutes);
      ("vchannel.reemitted", f c.reemitted);
      ("vchannel.dup_drops", f c.dup_drops);
      ("vchannel.unacked_peak", f c.unacked_peak);
      ("sentinel.suspicions", f c.suspicions);
      ("simnet.pci_bytes_per_payload_byte", Work.ratio c.pci (f o.Work.bytes));
    ]
    @ Work.sum_metrics !tm
  in
  (o, layer)
