(* Shared world-building and measurement helpers for the benchmark
   harness and integration tests: the simulated testbeds mirroring the
   paper's clusters, and the measurement methodology of §5 (a ping-pong
   whose averaged round trip is halved, or a one-way transfer timed to
   its last receive), written once as two traffic drivers. *)


module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Mad = Madeleine.Api
module Channel = Madeleine.Channel
module Config = Madeleine.Config
module Iface = Madeleine.Iface
module Vc = Madeleine.Vchannel

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

(* ------------------------------------------------------------------ *)
(* The §5 traffic skeleton *)

let pingpong engine ~iters ~ping ~pong =
  if iters < 1 then invalid_arg "Harness.pingpong: iters < 1";
  let started = ref Time.zero and finished = ref Time.zero in
  Engine.spawn engine ~name:"ping" (fun () ->
      started := Engine.now engine;
      for _ = 1 to iters do
        ping ()
      done;
      finished := Engine.now engine);
  Engine.spawn engine ~name:"pong" (fun () ->
      for _ = 1 to iters do
        pong ()
      done);
  Engine.run engine;
  Time.diff !finished !started / (2 * iters)

let spawn_one_way engine ~messages ~send ~recv =
  Engine.spawn engine ~name:"send" (fun () ->
      for k = 0 to messages - 1 do
        send k
      done);
  Engine.spawn engine ~name:"recv" (fun () ->
      for k = 0 to messages - 1 do
        recv k
      done)

let one_way engine ~messages ~send ~recv =
  let last = ref Time.zero in
  spawn_one_way engine ~messages ~send ~recv:(fun k ->
      recv k;
      last := Engine.now engine);
  Engine.run engine;
  !last

let mad_send ep ~remote buf =
  let oc = Mad.begin_packing ep ~remote in
  Mad.pack oc buf;
  Mad.end_packing oc

let mad_recv ep ~remote buf =
  let ic = Mad.begin_unpacking_from ep ~remote in
  Mad.unpack ic buf;
  Mad.end_unpacking ic

let vc_send vc ~me ~remote buf =
  let oc = Vc.begin_packing vc ~me ~remote in
  Vc.pack oc buf;
  Vc.end_packing oc

let vc_recv ?flow vc ~me ~remote buf =
  let ic = Vc.begin_unpacking_from vc ?flow ~me ~remote in
  Vc.unpack ic buf;
  Vc.end_unpacking ic

type world = {
  engine : Engine.t;
  session : Madeleine.Session.t;
  channel : Channel.t;
}

let make_world ?config ~n driver_of_nodes link =
  let engine = Worlds.engine () in
  let fabric = Fabric.create engine ~name:"net" ~link in
  let nodes =
    List.init n (fun i ->
        let node = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric node;
        node)
  in
  let driver = driver_of_nodes engine fabric nodes in
  let session = Madeleine.Session.create engine in
  let channel =
    Channel.create session driver ?config ~ranks:(List.init n Fun.id) ()
  in
  { engine; session; channel }

let bip_driver engine fabric nodes =
  let net = Bip.make_net engine fabric in
  let endpoints = List.map (Bip.attach net) nodes in
  Madeleine.Pmm_bip.driver (List.nth endpoints)

let sisci_driver engine fabric nodes =
  let net = Sisci.make_net engine fabric in
  let adapters = List.map (Sisci.attach net) nodes in
  Madeleine.Pmm_sisci.driver (List.nth adapters)

let tcp_driver engine fabric nodes =
  let net = Tcpnet.make_net engine fabric in
  let stacks = List.map (Tcpnet.attach net) nodes in
  Madeleine.Pmm_tcp.driver (List.nth stacks)

let via_driver engine fabric nodes =
  let net = Via.make_net engine fabric in
  let hosts = List.map (Via.attach net) nodes in
  Madeleine.Pmm_via.driver (List.nth hosts)

let sbp_driver engine fabric nodes =
  let net = Sbp.make_net engine fabric in
  let hosts = List.map (Sbp.attach net) nodes in
  Madeleine.Pmm_sbp.driver (List.nth hosts)

let bip_world ?config () = make_world ?config ~n:2 bip_driver Netparams.myrinet
let sisci_world ?config () = make_world ?config ~n:2 sisci_driver Netparams.sci
let tcp_world ?config () =
  make_world ?config ~n:2 tcp_driver Netparams.fast_ethernet

let via_world ?config () =
  make_world ?config ~n:2 via_driver Netparams.fast_ethernet

let sbp_world ?config () =
  make_world ?config ~n:2 sbp_driver Netparams.fast_ethernet

(* One-way time of a Madeleine ping-pong, per the paper's methodology. *)
let mad_pingpong w ~bytes_count ~iters =
  let ep0 = Channel.endpoint w.channel ~rank:0 in
  let ep1 = Channel.endpoint w.channel ~rank:1 in
  let data = payload bytes_count 9L and sink = Bytes.create bytes_count in
  pingpong w.engine ~iters
    ~ping:(fun () ->
      mad_send ep0 ~remote:1 data;
      mad_recv ep0 ~remote:1 data)
    ~pong:(fun () ->
      mad_recv ep1 ~remote:0 sink;
      mad_send ep1 ~remote:0 sink)

(* Raw-interface ping-pongs, for the "raw BIP" baseline of Fig. 5. *)
let raw_bip_pingpong ~bytes_count ~iters =
  let engine = Worlds.engine () in
  let fabric = Fabric.create engine ~name:"myri" ~link:Netparams.myrinet in
  let n0 = Node.create engine ~name:"n0" ~id:0 in
  let n1 = Node.create engine ~name:"n1" ~id:1 in
  Fabric.attach fabric n0;
  Fabric.attach fabric n1;
  let net = Bip.make_net engine fabric in
  let b0 = Bip.attach net n0 and b1 = Bip.attach net n1 in
  let data = payload bytes_count 7L and sink = Bytes.create bytes_count in
  pingpong engine ~iters
    ~ping:(fun () ->
      Bip.send b0 ~dst:1 ~tag:0 data;
      ignore (Bip.recv b0 ~src:1 ~tag:0 ~len:bytes_count data))
    ~pong:(fun () ->
      ignore (Bip.recv b1 ~src:0 ~tag:0 ~len:bytes_count sink);
      Bip.send b1 ~dst:0 ~tag:0 sink)

(* The two-cluster testbed of §6.2 with its gateway node. *)
type cluster_world = {
  cw_engine : Engine.t;
  cw_session : Madeleine.Session.t;
  cw_gateway : Node.t;
  ch_sci : Channel.t;
  ch_myri : Channel.t;
}

let two_cluster_world ?config () =
  let engine = Worlds.engine () in
  let sci_fab = Fabric.create engine ~name:"sci" ~link:Netparams.sci in
  let myri_fab = Fabric.create engine ~name:"myri" ~link:Netparams.myrinet in
  let n0 = Node.create engine ~name:"a" ~id:0 in
  let gw = Node.create engine ~name:"gw" ~id:1 in
  let n2 = Node.create engine ~name:"b" ~id:2 in
  Fabric.attach sci_fab n0;
  Fabric.attach sci_fab gw;
  Fabric.attach myri_fab gw;
  Fabric.attach myri_fab n2;
  let sci_net = Sisci.make_net engine sci_fab in
  let s0 = Sisci.attach sci_net n0 and s1 = Sisci.attach sci_net gw in
  let bip_net = Bip.make_net engine myri_fab in
  let b1 = Bip.attach bip_net gw and b2 = Bip.attach bip_net n2 in
  let sisci_drv =
    Madeleine.Pmm_sisci.driver (function
      | 0 -> s0
      | 1 -> s1
      | r -> invalid_arg (string_of_int r))
  in
  let bip_drv =
    Madeleine.Pmm_bip.driver (function
      | 1 -> b1
      | 2 -> b2
      | r -> invalid_arg (string_of_int r))
  in
  let session = Madeleine.Session.create engine in
  let ch_sci = Channel.create session sisci_drv ?config ~ranks:[ 0; 1 ] () in
  let ch_myri = Channel.create session bip_drv ?config ~ranks:[ 1; 2 ] () in
  { cw_engine = engine; cw_session = session; cw_gateway = gw; ch_sci; ch_myri }

(* Inter-cluster one-way bandwidth through the gateway for one packet
   size, as in Figs. 10/11. *)
(* Returns (bandwidth MB/s, gateway PCI utilization over the run). *)
let forwarding_run ?gateway_overhead ?extra_gateway_copy ?ingress_cap_mb_s
    ~mtu ~src ~dst ~bytes_count () =
  let w = two_cluster_world () in
  let vc =
    Vc.create w.cw_session ~mtu ?gateway_overhead ?extra_gateway_copy
      ?ingress_cap_mb_s [ w.ch_sci; w.ch_myri ]
  in
  let data = payload bytes_count 8L and sink = Bytes.create bytes_count in
  let last =
    one_way w.cw_engine ~messages:1
      ~send:(fun _ -> vc_send vc ~me:src ~remote:dst data)
      ~recv:(fun _ -> vc_recv vc ~me:dst ~remote:src sink)
  in
  let bw = Time.rate_mb_s ~bytes_count last in
  let util =
    Simnet.Fluid.utilization w.cw_gateway.Node.pci ~now:(Engine.now w.cw_engine)
  in
  (bw, util)

let forwarding_bandwidth ?gateway_overhead ?extra_gateway_copy
    ?ingress_cap_mb_s ~mtu ~src ~dst ~bytes_count () =
  fst
    (forwarding_run ?gateway_overhead ?extra_gateway_copy ?ingress_cap_mb_s
       ~mtu ~src ~dst ~bytes_count ())

let message_sizes =
  [ 4; 16; 64; 256; 1024; 4096; 8192; 16384; 32768; 65536; 131072; 262144;
    524288; 1048576 ]

let iters_for n = if n <= 1024 then 30 else if n <= 65536 then 10 else 4


(* ------------------------------------------------------------------ *)
(* MPI worlds and measurements (Fig. 6) *)

type mpi_device_kind =
  | Chmad
  | Scidirect of Mpilite.Dev_scidirect.profile

type mpi_world = { mpi_engine : Engine.t; mpi_world : Mpilite.Mpi.world }

let make_mpi_world ~n device_kind =
  let engine = Worlds.engine () in
  let fabric = Fabric.create engine ~name:"sci" ~link:Netparams.sci in
  let nodes =
    List.init n (fun i ->
        let node = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric node;
        node)
  in
  let net = Sisci.make_net engine fabric in
  let adapters = Array.of_list (List.map (Sisci.attach net) nodes) in
  let ranks = List.init n Fun.id in
  let devices =
    match device_kind with
    | Chmad ->
        let driver = Madeleine.Pmm_sisci.driver (fun r -> adapters.(r)) in
        let session = Madeleine.Session.create engine in
        let channel = Madeleine.Channel.create session driver ~ranks () in
        Array.init n (fun rank -> Mpilite.Dev_chmad.make channel ~rank)
    | Scidirect profile ->
        let states =
          Mpilite.Dev_scidirect.make_states profile (fun r -> adapters.(r)) ranks
        in
        Array.init n (fun rank ->
            Mpilite.Dev_scidirect.make profile
              ~adapters:(fun r -> adapters.(r))
              ~ranks ~states ~rank)
  in
  { mpi_engine = engine; mpi_world = Mpilite.Mpi.create_world engine ~devices }

let mpi_pingpong kind ~bytes_count ~iters =
  let module Mpi = Mpilite.Mpi in
  let w = make_mpi_world ~n:2 kind in
  let c0 = Mpi.ctx w.mpi_world ~rank:0 and c1 = Mpi.ctx w.mpi_world ~rank:1 in
  let data = payload bytes_count 9L and buf = Bytes.create bytes_count in
  pingpong w.mpi_engine ~iters
    ~ping:(fun () ->
      Mpi.send c0 ~dst:1 ~tag:0 data;
      ignore (Mpi.recv c0 ~src:1 ~tag:0 data))
    ~pong:(fun () ->
      ignore (Mpi.recv c1 ~src:0 ~tag:0 buf);
      Mpi.send c1 ~dst:0 ~tag:0 buf)

(* ------------------------------------------------------------------ *)
(* Nexus worlds and the RSR round trip (Fig. 7) *)

type nexus_proto = Nexus_mad_sisci | Nexus_mad_tcp

type nexus_world = { nx_engine : Engine.t; nx_world : Nexus.world }

let make_nexus_world ~n proto =
  let net, kind =
    match proto with
    | Nexus_mad_sisci -> ("sci", "sisci")
    | Nexus_mad_tcp -> ("eth", "tcp")
  in
  let nodes = List.init n (Printf.sprintf "n%d") in
  let node name = Printf.sprintf "node %s nets=%s" name net in
  let cf =
    Clusterfile.load
      (String.concat "\n"
         ((Printf.sprintf "network %s type=%s" net kind :: List.map node nodes)
         @ [
             Printf.sprintf "channel c net=%s nodes=%s" net
               (String.concat "," nodes);
           ]))
  in
  let engine = Clusterfile.engine cf and channel = Clusterfile.channel cf "c" in
  let transports = Array.init n (fun rank -> Nexus.mad_transport channel ~rank) in
  { nx_engine = engine; nx_world = Nexus.create_world engine ~transports }

(* One-way time of an RSR echo: client fires handler 0 at the server,
   whose handler echoes the payload back. *)
let nexus_roundtrip proto ~bytes_count ~iters =
  let module Nx = Nexus in
  let w = make_nexus_world ~n:2 proto in
  let c0 = Nx.ctx w.nx_world ~rank:0 in
  let c1 = Nx.ctx w.nx_world ~rank:1 in
  let reply_box = Marcel.Mailbox.create () in
  let client_ep =
    Nx.make_endpoint c0
      ~handlers:[| (fun _ buf -> Marcel.Mailbox.put reply_box (Nx.Buffer.size buf)) |]
  in
  let client_sp = Nx.startpoint client_ep in
  let server_ep =
    Nx.make_endpoint c1
      ~handlers:
        [|
          (fun ctx buf ->
            let len = Nx.Buffer.get_int buf in
            let data = Nx.Buffer.get_bytes buf ~len in
            let reply = Nx.Buffer.create () in
            Nx.Buffer.put_bytes reply data;
            Nx.send_rsr ctx client_sp ~handler:0 reply);
        |]
  in
  let server_sp = Nx.startpoint server_ep in
  let t0 = ref Time.zero and t1 = ref Time.zero in
  Engine.spawn w.nx_engine ~name:"client" (fun () ->
      let data = Bytes.create bytes_count in
      t0 := Engine.now w.nx_engine;
      for _ = 1 to iters do
        let buf = Nx.Buffer.create () in
        Nx.Buffer.put_int buf bytes_count;
        Nx.Buffer.put_bytes buf data;
        Nx.send_rsr c0 server_sp ~handler:0 buf;
        ignore (Marcel.Mailbox.take reply_box)
      done;
      t1 := Engine.now w.nx_engine);
  Engine.run w.nx_engine;
  Time.diff !t1 !t0 / (2 * iters)
