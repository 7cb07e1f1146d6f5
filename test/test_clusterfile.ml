(* Tests for the declarative cluster-description loader. *)

module Engine = Marcel.Engine
module Mad = Madeleine.Api
module Cf = Clusterfile

let two_cluster_cfg =
  {|
# comment line
network sci   type=sisci
network myri  type=bip

node a   nets=sci
node gw  nets=sci,myri
node b   nets=myri

channel  c-sci   net=sci   nodes=a,gw
channel  c-myri  net=myri  nodes=gw,b
vchannel wan  channels=c-sci,c-myri  mtu=8192
|}

let test_parse_inventory () =
  let t = Cf.load two_cluster_cfg in
  Alcotest.(check (list string)) "networks" [ "sci"; "myri" ] (Cf.networks t);
  Alcotest.(check (list string)) "nodes" [ "a"; "gw"; "b" ] (Cf.nodes t);
  Alcotest.(check (list string)) "channels" [ "c-sci"; "c-myri" ]
    (Cf.channels t);
  Alcotest.(check (list string)) "vchannels" [ "wan" ] (Cf.vchannels t);
  Alcotest.(check int) "rank a" 0 (Cf.rank_of t "a");
  Alcotest.(check int) "rank gw" 1 (Cf.rank_of t "gw");
  Alcotest.(check int) "rank b" 2 (Cf.rank_of t "b");
  Alcotest.(check (list int)) "channel ranks" [ 0; 1 ]
    (Madeleine.Channel.ranks (Cf.channel t "c-sci"))

let test_config_built_channel_works () =
  let t = Cf.load two_cluster_cfg in
  let chan = Cf.channel t "c-sci" in
  let data = Harness.payload 5000 81L in
  let sink = Bytes.create 5000 in
  Engine.spawn (Cf.engine t) ~name:"s" (fun () ->
      let oc =
        Mad.begin_packing (Madeleine.Channel.endpoint chan ~rank:0) ~remote:1
      in
      Mad.pack oc data;
      Mad.end_packing oc);
  Engine.spawn (Cf.engine t) ~name:"r" (fun () ->
      let ic =
        Mad.begin_unpacking_from
          (Madeleine.Channel.endpoint chan ~rank:1)
          ~remote:0
      in
      Mad.unpack ic sink;
      Mad.end_unpacking ic);
  Engine.run (Cf.engine t);
  Alcotest.(check bytes) "content" data sink

let test_config_built_vchannel_forwards () =
  let t = Cf.load two_cluster_cfg in
  let vc = Cf.vchannel t "wan" in
  Alcotest.(check int) "route a->b" 2
    (Madeleine.Vchannel.route_length vc ~src:(Cf.rank_of t "a")
       ~dst:(Cf.rank_of t "b"));
  let data = Harness.payload 40_000 82L in
  let sink = Bytes.create 40_000 in
  Engine.spawn (Cf.engine t) ~name:"s" (fun () ->
      let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
      Madeleine.Vchannel.pack oc data;
      Madeleine.Vchannel.end_packing oc);
  Engine.spawn (Cf.engine t) ~name:"r" (fun () ->
      let ic = Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0 in
      Madeleine.Vchannel.unpack ic sink;
      Madeleine.Vchannel.end_unpacking ic);
  Engine.run (Cf.engine t);
  Alcotest.(check bytes) "content through config-built gateway" data sink

let test_load_file () =
  let path = Filename.temp_file "cluster" ".cfg" in
  let oc = open_out path in
  output_string oc two_cluster_cfg;
  close_out oc;
  let t = Cf.load_file path in
  Sys.remove path;
  Alcotest.(check (list string)) "nodes" [ "a"; "gw"; "b" ] (Cf.nodes t)

(* Loading a directory fails on the read; the channel opened for it must
   be closed all the same. *)
let test_load_file_error_closes () =
  let dir = Filename.get_temp_dir_name () in
  let load () =
    match Cf.load_file dir with
    | _ -> Alcotest.fail "loaded a directory"
    | exception Sys_error _ -> ()
  in
  if Sys.file_exists "/proc/self/fd" then begin
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = open_fds () in
    for _ = 1 to 100 do
      load ()
    done;
    Alcotest.(check int) "open descriptors" before (open_fds ())
  end
  else load ()

(* The same 1 MB forwarding run over the section 6.2 world as the
   example Clusterfile describes it and as Harness wires it by hand:
   the two must be the same world, event for event. *)
let test_two_cluster_matches_harness () =
  let forward engine vc =
    let bytes_count = 1 lsl 20 in
    let data = Harness.payload bytes_count 8L in
    let sink = Bytes.create bytes_count in
    let finish = ref Marcel.Time.zero in
    Engine.spawn engine ~name:"sender" (fun () ->
        let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
        Madeleine.Vchannel.pack oc data;
        Madeleine.Vchannel.end_packing oc);
    Engine.spawn engine ~name:"receiver" (fun () ->
        let ic = Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0 in
        Madeleine.Vchannel.unpack ic sink;
        Madeleine.Vchannel.end_unpacking ic;
        finish := Engine.now engine);
    Engine.run engine;
    Alcotest.(check bool) "delivered intact" true (Bytes.equal data sink);
    (Marcel.Time.rate_mb_s ~bytes_count !finish, Engine.fingerprint engine)
  in
  let t = Cf.load_file "../examples/clusters/two_cluster.cfg" in
  let cf_bw, cf_fp = forward (Cf.engine t) (Cf.vchannel t "wan") in
  let w = Harness.two_cluster_world () in
  let hw_bw, hw_fp =
    forward w.Harness.cw_engine
      (Madeleine.Vchannel.create w.Harness.cw_session ~mtu:16384
         [ w.Harness.ch_sci; w.Harness.ch_myri ])
  in
  Alcotest.(check (float 0.0)) "bandwidth" hw_bw cf_bw;
  Alcotest.(check int) "fingerprint" hw_fp cf_fp

let test_channel_options_parsed () =
  let t =
    Cf.load
      {|
network sci type=sisci
node x nets=sci
node y nets=sci
channel c net=sci nodes=x,y slots=1 aggregation=false rx=interrupt checked=false
|}
  in
  let cfg = Madeleine.Channel.config (Cf.channel t "c") in
  Alcotest.(check int) "slots" 1 cfg.Madeleine.Config.sisci_ring_slots;
  Alcotest.(check bool) "aggregation" false cfg.Madeleine.Config.aggregation;
  Alcotest.(check bool) "checked" false cfg.Madeleine.Config.checked;
  Alcotest.(check bool) "rx" true
    (cfg.Madeleine.Config.rx_interaction = Madeleine.Config.Rx_interrupt)

let expect_parse_error ~line text =
  match Cf.load text with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Cf.Parse_error (l, _) ->
      Alcotest.(check int) "error line" line l

let test_flow_control_options_parsed () =
  (* Network-level credits= lands on the BIP short-message window;
     vchannel-level credits=/gw_pool= arm end-to-end flow control. The
     config must load and the credit-armed vchannel must still forward. *)
  let t =
    Cf.load
      {|
network sci  type=sisci
network myri type=bip credits=6
node a  nets=sci
node gw nets=sci,myri
node b  nets=myri
channel c-sci  net=sci  nodes=a,gw
channel c-myri net=myri nodes=gw,b
vchannel wan channels=c-sci,c-myri mtu=4096 credits=4 gw_pool=2
|}
  in
  let vc = Cf.vchannel t "wan" in
  let data = Harness.payload 20_000 83L in
  let sink = Bytes.create 20_000 in
  Engine.spawn (Cf.engine t) ~name:"s" (fun () ->
      let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
      Madeleine.Vchannel.pack oc data;
      Madeleine.Vchannel.end_packing oc);
  Engine.spawn (Cf.engine t) ~name:"r" (fun () ->
      let ic = Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0 in
      Madeleine.Vchannel.unpack ic sink;
      Madeleine.Vchannel.end_unpacking ic);
  Engine.run (Cf.engine t);
  Alcotest.(check bytes) "content through credit-armed gateway" data sink;
  Alcotest.(check bool) "credit plane armed" true
    (Madeleine.Vchannel.credit_stats vc <> None);
  Alcotest.(check bool) "gateway pool bound in force" true
    (List.exists
       (fun q ->
         q.Madeleine.Vchannel.q_point = "gateway_pool_slots"
         && q.Madeleine.Vchannel.q_bound <> None)
       (Madeleine.Vchannel.queue_stats vc))

let test_flow_control_option_errors () =
  (* credits= at network level only means something for bip's
     short-message window: any other kind must be rejected, on the
     offending line. *)
  expect_parse_error ~line:1 "network t type=tcp credits=8";
  expect_parse_error ~line:2
    "network m type=bip\nnetwork s type=sisci credits=8";
  (* gw_pool= is a vchannel option, never a network one. *)
  expect_parse_error ~line:1 "network m type=bip gw_pool=2";
  (* Both demand integers >= 1 wherever they are legal. *)
  expect_parse_error ~line:1 "network m type=bip credits=0";
  expect_parse_error ~line:5
    "network s type=sisci\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b\nvchannel v channels=c credits=0";
  expect_parse_error ~line:5
    "network s type=sisci\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b\nvchannel v channels=c gw_pool=none"

let test_sched_options_parsed () =
  (* sched=aggreg with explicit knobs must load, arm the scheduler
     (sched_stats becomes Some) and still deliver through the gateway. *)
  let t =
    Cf.load
      {|
network sci  type=sisci
network myri type=bip
node a  nets=sci
node gw nets=sci,myri
node b  nets=myri
channel c-sci  net=sci  nodes=a,gw
channel c-myri net=myri nodes=gw,b
vchannel wan channels=c-sci,c-myri mtu=4096 sched=aggreg aggr_max=2048 aggr_flush_us=25
|}
  in
  let vc = Cf.vchannel t "wan" in
  let data = Harness.payload 300 84L in
  let sink = Bytes.create 300 in
  Engine.spawn (Cf.engine t) ~name:"s" (fun () ->
      let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
      Madeleine.Vchannel.pack oc data;
      Madeleine.Vchannel.end_packing oc);
  Engine.spawn (Cf.engine t) ~name:"r" (fun () ->
      let ic = Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0 in
      Madeleine.Vchannel.unpack ic sink;
      Madeleine.Vchannel.end_unpacking ic);
  Engine.run (Cf.engine t);
  Alcotest.(check bytes) "content through scheduled gateway" data sink;
  Alcotest.(check bool) "scheduler armed" true
    (Madeleine.Vchannel.sched_stats vc <> None);
  (* sched=fifo is the inert spelling: accepted, no scheduler state. *)
  let t2 =
    Cf.load
      {|
network s type=sisci
node a nets=s
node b nets=s
channel c net=s nodes=a,b
vchannel v channels=c sched=fifo
|}
  in
  Alcotest.(check bool) "fifo keeps scheduler off" true
    (Madeleine.Vchannel.sched_stats (Cf.vchannel t2 "v") = None)

let test_sched_option_errors () =
  let vc_line opts =
    "network s type=sisci\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b\nvchannel v channels=c " ^ opts
  in
  (* Only the two strategy names exist. *)
  expect_parse_error ~line:5 (vc_line "sched=lifo");
  (* The aggregation knobs mean nothing without (or with a non-
     aggregating) sched= — reject on the vchannel's line. *)
  expect_parse_error ~line:5 (vc_line "aggr_max=2048");
  expect_parse_error ~line:5 (vc_line "aggr_flush_us=25");
  expect_parse_error ~line:5 (vc_line "sched=fifo aggr_max=2048");
  expect_parse_error ~line:5 (vc_line "sched=fifo aggr_flush_us=25");
  (* Budget and deadline must be a positive int / positive number. *)
  expect_parse_error ~line:5 (vc_line "sched=aggreg aggr_max=0");
  expect_parse_error ~line:5 (vc_line "sched=aggreg aggr_flush_us=0");
  expect_parse_error ~line:5 (vc_line "sched=aggreg aggr_flush_us=fast");
  (* sched= is a vchannel option, never a network one. *)
  expect_parse_error ~line:1 "network m type=bip sched=aggreg"

let rdv_cfg_lines extra =
  Printf.sprintf
    "network sci type=sisci\nnode a nets=sci\nnode b nets=sci\n\
     channel c net=sci nodes=a,b %s"
    extra

let test_rendezvous_options_parsed () =
  let t =
    Cf.load
      (rdv_cfg_lines
         "slot_payload=4096 dma_threshold=32768 rendezvous=65536 regcache=4 \
          regcache_bytes=1048576")
  in
  let cfg = Madeleine.Channel.config (Cf.channel t "c") in
  Alcotest.(check int) "slot_payload" 4096
    cfg.Madeleine.Config.sisci_slot_payload;
  Alcotest.(check int) "dma_threshold" 32768
    cfg.Madeleine.Config.sisci_dma_threshold;
  Alcotest.(check (option int)) "rendezvous" (Some 65536)
    cfg.Madeleine.Config.rendezvous_threshold;
  Alcotest.(check int) "regcache" 4 cfg.Madeleine.Config.regcache_entries;
  Alcotest.(check (option int)) "regcache_bytes" (Some 1048576)
    cfg.Madeleine.Config.regcache_bytes;
  (* regcache=0 (register per send) and rendezvous=off are valid. *)
  let t = Cf.load (rdv_cfg_lines "rendezvous=off regcache=0") in
  let cfg = Madeleine.Channel.config (Cf.channel t "c") in
  Alcotest.(check (option int)) "rendezvous off" None
    cfg.Madeleine.Config.rendezvous_threshold;
  Alcotest.(check int) "regcache 0" 0 cfg.Madeleine.Config.regcache_entries

let test_rendezvous_auto_from_bench_json () =
  (* rendezvous=auto consumes the measured crossover written by
     `madbench crossover`; without a measurement for the fabric it is a
     line-numbered parse error. *)
  expect_parse_error ~line:4 (rdv_cfg_lines "rendezvous=auto");
  let file = Filename.temp_file "crossover" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc
        "{ \"crossover\": [\n\
        \  { \"fabric\": \"sisci\", \"crossover_bytes\": 24576 }\n\
         ] }\n";
      close_out oc;
      Alcotest.(check (option int)) "loader finds sisci" (Some 24576)
        (Crossover.lookup ~file ~fabric:"sisci" ());
      Alcotest.(check (option int)) "loader misses via" None
        (Crossover.lookup ~file ~fabric:"via" ()))

let with_file ?(name = Filename.temp_file "crossover" ".json") text f =
  let oc = open_out name in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove name) (fun () -> f name)

let test_rendezvous_auto_any_layout () =
  (* The crossover file is read as JSON, not line by line: a record
     split over several lines is found, and a malformed file is an error
     naming it, not a missing measurement. *)
  with_file
    {|{
  "crossover": [
    {
      "fabric": "sisci",
      "crossover_bytes": 24576
    }
  ]
}
|}
    (fun file ->
      Alcotest.(check (option int)) "multi-line record" (Some 24576)
        (Crossover.lookup ~file ~fabric:"sisci" ()));
  let truncated = {|{ "crossover": [ { "fabric": "sisci", |} in
  with_file truncated (fun file ->
      match Crossover.lookup ~file ~fabric:"sisci" () with
      | _ -> Alcotest.fail "a malformed file read as a measurement"
      | exception Json.Error msg ->
          Alcotest.(check bool) "error names the file" true
            (String.starts_with ~prefix:file msg));
  (* Through a clusterfile, the same fault is a line-numbered error. *)
  let cwd = Sys.getcwd () and dir = Filename.temp_dir "crossover" "" in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.rmdir dir)
    (fun () ->
      with_file ~name:Crossover.default_file truncated (fun _ ->
          expect_parse_error ~line:4 (rdv_cfg_lines "rendezvous=auto")))

let test_rendezvous_option_errors () =
  expect_parse_error ~line:4 (rdv_cfg_lines "slot_payload=0");
  expect_parse_error ~line:4 (rdv_cfg_lines "dma_threshold=-1");
  expect_parse_error ~line:4 (rdv_cfg_lines "rendezvous=0");
  expect_parse_error ~line:4 (rdv_cfg_lines "rendezvous=sometimes");
  expect_parse_error ~line:4 (rdv_cfg_lines "regcache=-1");
  expect_parse_error ~line:4 (rdv_cfg_lines "regcache_bytes=0");
  expect_parse_error ~line:4 (rdv_cfg_lines "regcache=lots")

let test_topology_options_parsed () =
  (* version=/coordinator= arm the live-topology plane: the vchannel
     gets an epoch-numbered snapshot whose membership is the clusterfile
     world and whose coordinator is the named node's rank. *)
  let t =
    Cf.load
      {|
network sci  type=sisci
network myri type=bip
node a  nets=sci
node gw nets=sci,myri
node b  nets=myri
channel c-sci  net=sci  nodes=a,gw
channel c-myri net=myri nodes=gw,b
vchannel wan channels=c-sci,c-myri mtu=4096 version=3 coordinator=gw
|}
  in
  let vc = Cf.vchannel t "wan" in
  (match Madeleine.Vchannel.topology vc with
  | None -> Alcotest.fail "live plane not armed"
  | Some snap ->
      Alcotest.(check int) "epoch" 3 (Madeleine.Topology.epoch snap);
      Alcotest.(check int) "coordinator" (Cf.rank_of t "gw")
        (Madeleine.Topology.coordinator snap);
      Alcotest.(check (list int)) "members" [ 0; 1; 2 ]
        (Madeleine.Topology.ranks snap));
  (* version= alone defaults the coordinator to the lowest rank. *)
  let t2 =
    Cf.load
      {|
network s type=sisci
node a nets=s
node b nets=s
channel c net=s nodes=a,b
vchannel v channels=c version=1
|}
  in
  (match Madeleine.Vchannel.topology (Cf.vchannel t2 "v") with
  | None -> Alcotest.fail "live plane not armed"
  | Some snap ->
      Alcotest.(check int) "default coordinator" 0
        (Madeleine.Topology.coordinator snap));
  (* Without the keys the plane stays off. *)
  let t3 = Cf.load two_cluster_cfg in
  Alcotest.(check bool) "inert without version=" true
    (Madeleine.Vchannel.topology (Cf.vchannel t3 "wan") = None)

let test_topology_option_errors () =
  let vc_line opts =
    "network s type=sisci\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b\nvchannel v channels=c " ^ opts
  in
  (* Epochs are integers >= 1, rejected on the vchannel's line. *)
  expect_parse_error ~line:5 (vc_line "version=0");
  expect_parse_error ~line:5 (vc_line "version=-2");
  expect_parse_error ~line:5 (vc_line "version=latest");
  (* The coordinator must be a declared node... *)
  expect_parse_error ~line:5 (vc_line "version=1 coordinator=ghost");
  (* ...and means nothing without an epoch to arbitrate. *)
  expect_parse_error ~line:5 (vc_line "coordinator=a");
  (* Both are vchannel options, never network ones. *)
  expect_parse_error ~line:1 "network m type=bip version=1";
  expect_parse_error ~line:1 "network m type=bip coordinator=a"

let test_election_options_parsed () =
  (* election=on swaps the static coordinator for a quorum-elected one;
     topo_quorum overrides the default majority. *)
  let t =
    Cf.load
      {|
faults seed=3
network s type=tcp
node a nets=s
node b nets=s
node c nets=s
channel x net=s nodes=a,b,c
vchannel v channels=x reliable=true version=1 election=on topo_quorum=3
|}
  in
  let vc = Cf.vchannel t "v" in
  Alcotest.(check bool) "election armed" true (Madeleine.Vchannel.election vc);
  (match Madeleine.Vchannel.election_stats vc with
  | None -> Alcotest.fail "election stats missing"
  | Some es ->
      Alcotest.(check int) "topo_quorum honoured" 3
        es.Madeleine.Vchannel.quorum;
      Alcotest.(check int) "no election yet" 0
        es.Madeleine.Vchannel.elections);
  Alcotest.(check (option int)) "initial coordinator seated" (Some 0)
    (Madeleine.Vchannel.coordinator vc);
  (* election=off (and unset) leave the plane off entirely. *)
  let t2 =
    Cf.load
      {|
faults seed=3
network s type=tcp
node a nets=s
node b nets=s
channel x net=s nodes=a,b
vchannel v channels=x reliable=true version=1 election=off
|}
  in
  Alcotest.(check bool) "election=off is inert" false
    (Madeleine.Vchannel.election (Cf.vchannel t2 "v"));
  Alcotest.(check bool) "no stats when off" true
    (Madeleine.Vchannel.election_stats (Cf.vchannel t2 "v") = None)

let test_election_option_errors () =
  let base =
    "faults seed=3\nnetwork s type=tcp\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b\nvchannel v channels=c "
  in
  (* Malformed values and cross-option constraints, all on the
     vchannel's line. *)
  expect_parse_error ~line:6 (base ^ "reliable=true version=1 election=maybe");
  expect_parse_error ~line:6
    (base ^ "reliable=true version=1 topo_quorum=2");
  expect_parse_error ~line:6
    (base ^ "reliable=true version=1 election=on topo_quorum=0");
  expect_parse_error ~line:6
    (base ^ "reliable=true version=1 election=on topo_quorum=two");
  (* Election needs both the live-topology and reliability planes. *)
  expect_parse_error ~line:6 (base ^ "reliable=true election=on");
  expect_parse_error ~line:6 (base ^ "version=1 election=on")

let test_coll_options_parsed () =
  (* coll= attaches a fault-tolerant collectives layer to the vchannel;
     fanout and quorum flow through to Collectives.create. *)
  let t =
    Cf.load
      {|
network sci  type=sisci
network myri type=bip
node a  nets=sci
node gw nets=sci,myri
node b  nets=myri
channel c-sci  net=sci  nodes=a,gw
channel c-myri net=myri nodes=gw,b
vchannel wan channels=c-sci,c-myri mtu=4096 coll=tree coll_fanout=2 coll_quorum=2
|}
  in
  (match Cf.collectives t "wan" with
  | None -> Alcotest.fail "coll=tree did not attach a collectives layer"
  | Some coll ->
      Alcotest.(check bool) "algo tree" true
        (Madeleine.Collectives.algo coll = Madeleine.Collectives.Tree);
      Alcotest.(check int) "quorum" 2 (Madeleine.Collectives.quorum coll);
      (* The layer is live: run a barrier over it. *)
      let engine = Cf.engine t in
      for r = 0 to 2 do
        Marcel.Engine.spawn engine ~name:(Printf.sprintf "r%d" r) (fun () ->
            Madeleine.Collectives.barrier coll ~me:r)
      done;
      Marcel.Engine.run engine;
      Alcotest.(check bool) "barrier moved packets" true
        ((Madeleine.Collectives.stats coll).Madeleine.Collectives.packets > 0));
  (* coll=flat is the measured linear baseline. *)
  let t2 =
    Cf.load
      {|
network s type=sisci
node a nets=s
node b nets=s
channel c net=s nodes=a,b
vchannel v channels=c coll=flat
|}
  in
  (match Cf.collectives t2 "v" with
  | Some coll ->
      Alcotest.(check bool) "algo flat" true
        (Madeleine.Collectives.algo coll = Madeleine.Collectives.Flat)
  | None -> Alcotest.fail "coll=flat did not attach a collectives layer");
  (* With coll= unset no layer exists at all. *)
  let t3 = Cf.load two_cluster_cfg in
  Alcotest.(check bool) "inert without coll=" true
    (Cf.collectives t3 "wan" = None)

let test_coll_option_errors () =
  let vc_line opts =
    "network s type=sisci\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b\nvchannel v channels=c " ^ opts
  in
  (* The algorithm is tree or flat, rejected on the vchannel's line. *)
  expect_parse_error ~line:5 (vc_line "coll=ring");
  expect_parse_error ~line:5 (vc_line "coll=");
  (* Fanout caps tree children: an integer >= 2, and only with a tree. *)
  expect_parse_error ~line:5 (vc_line "coll=tree coll_fanout=1");
  expect_parse_error ~line:5 (vc_line "coll=tree coll_fanout=wide");
  expect_parse_error ~line:5 (vc_line "coll_fanout=2");
  expect_parse_error ~line:5 (vc_line "coll=flat coll_fanout=2");
  (* Quorum is an integer >= 1 and means nothing without a layer. *)
  expect_parse_error ~line:5 (vc_line "coll=tree coll_quorum=0");
  expect_parse_error ~line:5 (vc_line "coll=tree coll_quorum=most");
  expect_parse_error ~line:5 (vc_line "coll_quorum=1");
  (* All three are vchannel options, never network or channel ones. *)
  expect_parse_error ~line:1 "network m type=bip coll=tree";
  expect_parse_error ~line:4
    "network s type=sisci\nnode a nets=s\nnode b nets=s\n\
     channel c net=s nodes=a,b coll_fanout=2"

let test_library_rejections_line_numbered () =
  (* Values only the library judges (Vchannel.create, Channel.create,
     Faults, Time) are rejected as Parse_error on the declaration's
     line, never as a bare Invalid_argument. *)
  let world =
    "faults seed=3\nnetwork s type=tcp\nnode a nets=s\nnode b nets=s\n"
  in
  List.iter
    (fun opts ->
      expect_parse_error ~line:6
        (world ^ "channel c net=s nodes=a,b\nvchannel v channels=c " ^ opts))
    [
      "mtu=4";
      "ingress_cap=0";
      "patience_us=-5";
      "gateway_overhead_us=-5";
      "sched=aggreg aggr_max=4";
      "reliable=true version=1 election=on topo_quorum=5";
    ];
  List.iter
    (fun line -> expect_parse_error ~line:5 (world ^ line))
    [
      "channel c net=s nodes=a,b connect_timeout_us=-1";
      "channel c net=s nodes=a";
      "fault drop net=s node=a rate=2.0";
      "fault drop net=s node=a rate=-1";
      "fault crash node=a at_us=-3";
    ]

let test_fault_slow_and_tcp_access () =
  let t =
    Cf.load
      {|
faults seed=1
network s type=tcp
network m type=sisci
node a nets=s,m
node b nets=s
fault slow net=s node=b mb_s=0.5
|}
  in
  Alcotest.(check (option (float 0.0))) "receive cap" (Some 0.5)
    (Simnet.Faults.rx_cap (Option.get (Cf.faults t)) ~fabric:"s"
       ~node:(Cf.rank_of t "b"));
  Alcotest.(check string) "stack of b" "b"
    (Tcpnet.node (Cf.tcp_stack t ~net:"s" "b")).Simnet.Node.name;
  Alcotest.(check (pair int int)) "fresh net counters" (0, 0)
    (Tcpnet.net_stats (Cf.tcp_net t "s"));
  match Cf.tcp_net t "m" with
  | _ -> Alcotest.fail "a sisci network has no tcp net"
  | exception Invalid_argument _ -> ()

(* nan and inf parse as floats; every numeric option rejects them. *)
let test_non_finite_rejected () =
  let world =
    "faults seed=3\nnetwork s type=tcp\nnode a nets=s\nnode b nets=s\n"
  in
  List.iter
    (fun line -> expect_parse_error ~line:5 (world ^ line))
    [
      "fault drop net=s node=a rate=nan";
      "fault corrupt net=s node=a rate=-nan";
      "fault crash node=a at_us=inf";
      "fault stall node=a at_us=10 for_us=infinity";
      "fault slow net=s node=a mb_s=inf";
      "channel c net=s nodes=a,b connect_timeout_us=nan";
    ];
  List.iter
    (fun opts ->
      expect_parse_error ~line:6
        (world ^ "channel c net=s nodes=a,b\nvchannel v channels=c " ^ opts))
    [ "patience_us=nan"; "ingress_cap=inf"; "gateway_overhead_us=-inf" ]

let test_parse_errors () =
  expect_parse_error ~line:1 "network foo type=quantum";
  expect_parse_error ~line:1 "node lonely nets=nowhere";
  expect_parse_error ~line:2 "network sci type=sisci\nchannel c nodes=a,b";
  expect_parse_error ~line:3
    "network sci type=sisci\nnode a nets=sci\nnode a nets=sci";
  expect_parse_error ~line:1 "teapot brew";
  expect_parse_error ~line:1 "network x type=sisci bogus";
  expect_parse_error ~line:4
    "network sci type=sisci\nnode a nets=sci\nnode b nets=sci\n\
     channel c net=sci nodes=a,b slots=two";
  (* A node named on a network must be attached to it: a channel
     member, and the node of every link fault. *)
  let split = "network sci type=sisci\nnetwork myri type=bip\n" in
  expect_parse_error ~line:5
    (split ^ "node a nets=sci\nnode b nets=myri\nchannel c net=sci nodes=a,b");
  expect_parse_error ~line:4
    (split ^ "node a nets=sci\nchannel c net=sci nodes=a,ghost");
  List.iter
    (fun fault ->
      expect_parse_error ~line:6
        ("faults seed=1\n" ^ split ^ "node a nets=sci\nnode b nets=myri\n"
       ^ fault))
    [
      "fault drop net=myri node=a rate=0.1";
      "fault corrupt node=a net=myri rate=0.1";
      "fault flap net=myri node=a at_us=1 for_us=1";
      "fault slow net=myri node=a mb_s=1";
    ]

let () =
  Alcotest.run "clusterfile"
    [
      ( "loader",
        [
          Alcotest.test_case "inventory" `Quick test_parse_inventory;
          Alcotest.test_case "channel works" `Quick
            test_config_built_channel_works;
          Alcotest.test_case "vchannel forwards" `Quick
            test_config_built_vchannel_forwards;
          Alcotest.test_case "load from file" `Quick test_load_file;
          Alcotest.test_case "load error closes the file" `Quick
            test_load_file_error_closes;
          Alcotest.test_case "two-cluster text matches Harness" `Quick
            test_two_cluster_matches_harness;
          Alcotest.test_case "channel options" `Quick
            test_channel_options_parsed;
          Alcotest.test_case "flow-control options" `Quick
            test_flow_control_options_parsed;
          Alcotest.test_case "flow-control option errors" `Quick
            test_flow_control_option_errors;
          Alcotest.test_case "scheduler options" `Quick
            test_sched_options_parsed;
          Alcotest.test_case "scheduler option errors" `Quick
            test_sched_option_errors;
          Alcotest.test_case "rendezvous options" `Quick
            test_rendezvous_options_parsed;
          Alcotest.test_case "rendezvous auto crossover" `Quick
            test_rendezvous_auto_from_bench_json;
          Alcotest.test_case "rendezvous auto any layout" `Quick
            test_rendezvous_auto_any_layout;
          Alcotest.test_case "rendezvous option errors" `Quick
            test_rendezvous_option_errors;
          Alcotest.test_case "topology options" `Quick
            test_topology_options_parsed;
          Alcotest.test_case "election options" `Quick
            test_election_options_parsed;
          Alcotest.test_case "election option errors" `Quick
            test_election_option_errors;
          Alcotest.test_case "topology option errors" `Quick
            test_topology_option_errors;
          Alcotest.test_case "collectives options" `Quick
            test_coll_options_parsed;
          Alcotest.test_case "collectives option errors" `Quick
            test_coll_option_errors;
          Alcotest.test_case "library rejections line-numbered" `Quick
            test_library_rejections_line_numbered;
          Alcotest.test_case "fault slow and tcp access" `Quick
            test_fault_slow_and_tcp_access;
          Alcotest.test_case "non-finite numbers rejected" `Quick
            test_non_finite_rejected;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
    ]
