module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Channel = Madeleine.Channel
module Config = Madeleine.Config

exception Parse_error of int * string

type net_kind = Sisci_k | Bip_k | Tcp_k | Via_k | Sbp_k

(* A network: its fabric plus the per-rank protocol endpoint factory,
   built lazily as nodes join. A tcp network also keeps its net and
   per-rank stacks, for workloads that use raw TCP. *)
type network = {
  kind : net_kind;
  fabric : Fabric.t;
  attach_node : Node.t -> unit;
  driver_of : unit -> Madeleine.Driver.t;
  tcp : (Tcpnet.net * (int, Tcpnet.t) Hashtbl.t) option;
}

type t = {
  cf_engine : Engine.t;
  cf_session : Madeleine.Session.t;
  mutable cf_faults : Simnet.Faults.t option;
  nets : (string, network) Hashtbl.t;
  node_tbl : (string, Node.t) Hashtbl.t;
  mutable node_order : string list; (* reverse declaration order *)
  chan_tbl : (string, Channel.t) Hashtbl.t;
  mutable chan_order : string list;
  vchan_tbl : (string, Madeleine.Vchannel.t) Hashtbl.t;
  mutable vchan_order : string list;
  memb_tbl : (string, Madeleine.Membership.t) Hashtbl.t;
  coll_tbl : (string, Madeleine.Collectives.t) Hashtbl.t;
  mutable net_order : string list;
}

let engine t = t.cf_engine
let session t = t.cf_session
let faults t = t.cf_faults
let networks t = List.rev t.net_order
let nodes t = List.rev t.node_order
let channels t = List.rev t.chan_order
let vchannels t = List.rev t.vchan_order
let rank_of t name = (Hashtbl.find t.node_tbl name).Node.id
let channel t name = Hashtbl.find t.chan_tbl name
let vchannel t name = Hashtbl.find t.vchan_tbl name
let membership t name = Hashtbl.find_opt t.memb_tbl name
let collectives t name = Hashtbl.find_opt t.coll_tbl name

let tcp t name =
  match (Hashtbl.find t.nets name).tcp with
  | Some tcp -> tcp
  | None ->
      invalid_arg (Printf.sprintf "Clusterfile: %s is not a tcp network" name)

let tcp_net t name = fst (tcp t name)
let tcp_stack t ~net name = Hashtbl.find (snd (tcp t net)) (rank_of t name)

(* ------------------------------------------------------------------ *)
(* Per-kind glue: how to attach a node and build a driver. *)

let make_network engine ?window ?max_retries ?credits kind name =
  let link =
    match kind with
    | Sisci_k -> Netparams.sci
    | Bip_k -> Netparams.myrinet
    | Tcp_k | Via_k | Sbp_k -> Netparams.fast_ethernet
  in
  let fabric = Fabric.create engine ~name ~link in
  (* One protocol's glue: its net over the fabric, an endpoint per
     attached node, and the PMM driver over those endpoints; [tcp]
     keeps the net and endpoints of a tcp network. *)
  let glue ?(tcp = fun _ _ -> None) make_net attach driver =
    let net = make_net engine fabric in
    let eps = Hashtbl.create 8 in
    {
      kind;
      fabric;
      attach_node =
        (fun n ->
          Fabric.attach fabric n;
          Hashtbl.add eps n.Node.id (attach net n));
      driver_of = (fun () -> driver (Hashtbl.find eps));
      tcp = tcp net eps;
    }
  in
  match kind with
  | Sisci_k -> glue Sisci.make_net Sisci.attach Madeleine.Pmm_sisci.driver
  | Bip_k -> glue (Bip.make_net ?credits) Bip.attach Madeleine.Pmm_bip.driver
  | Tcp_k ->
      glue
        ~tcp:(fun net stacks -> Some (net, stacks))
        (Tcpnet.make_net ?window ?max_retries)
        Tcpnet.attach Madeleine.Pmm_tcp.driver
  | Via_k -> glue Via.make_net Via.attach Madeleine.Pmm_via.driver
  | Sbp_k -> glue Sbp.make_net Sbp.attach Madeleine.Pmm_sbp.driver

(* ------------------------------------------------------------------ *)
(* Parsing *)

let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let error lineno fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt

let split_kv lineno tok =
  match String.index_opt tok '=' with
  | None -> error lineno "expected key=value, got %S" tok
  | Some i ->
      (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

(* Value parsers: [p lineno key value], raising Parse_error on the line. *)

let bool lineno key = function
  | "true" -> true
  | "false" -> false
  | v -> error lineno "%s expects true/false, got %S" key v

let int lineno key v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> error lineno "%s expects an integer, got %S" key v

let float lineno key v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> f
  | _ -> error lineno "%s expects a finite number, got %S" key v

let at_least n lineno key v =
  let i = int lineno key v in
  if i < n then error lineno "%s expects an integer >= %d" key n;
  i

let span lineno key v = Time.us (float lineno key v)
let some p lineno key v = Some (p lineno key v)
let names _ _ v = String.split_on_char ',' v |> List.filter (( <> ) "")

(* One of the named [choices]; the message lists them in order. *)
let choice choices lineno key v =
  match List.assoc_opt v choices with
  | Some c -> c
  | None ->
      error lineno "%s expects %s" key (String.concat "|" (List.map fst choices))

let find_or lineno table what name =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None -> error lineno "unknown %s %S" what name

let find table what lineno _ name = find_or lineno table what name

let string_of_kind = function
  | Sisci_k -> "sisci"
  | Bip_k -> "bip"
  | Tcp_k -> "tcp"
  | Via_k -> "via"
  | Sbp_k -> "sbp"

let network_type lineno _ = function
  | "sisci" -> Sisci_k
  | "bip" -> Bip_k
  | "tcp" -> Tcp_k
  | "via" -> Via_k
  | "sbp" -> Sbp_k
  | other -> error lineno "unknown network type %S" other

(* A declaration's table of options: each key with the check of its
   value, and how to read the typed result from the key=value pairs.
   Built with [let+ x = opt KEY PARSER and+ ... in BODY]. *)
type 'a spec = {
  keys : (string * (int -> string -> string -> unit)) list;
  read : int -> (string * string) list -> 'a;
}

let ( let+ ) s f = { s with read = (fun l kvs -> f (s.read l kvs)) }

let ( and+ ) a b =
  {
    keys = a.keys @ b.keys;
    read =
      (fun l kvs ->
        let x = a.read l kvs in
        (x, b.read l kvs));
  }

(* [Some v] when the line gives [key], [None] otherwise. *)
let opt key p =
  {
    keys = [ (key, fun l k v -> ignore (p l k v)) ];
    read = (fun l kvs -> Option.map (p l key) (List.assoc_opt key kvs));
  }

let value key p default =
  let+ v = opt key p in
  Option.value v ~default

let required key p msg =
  let s = opt key p in
  {
    s with
    read =
      (fun l kvs ->
        match s.read l kvs with
        | Some v -> v
        | None -> error l "%s" msg);
  }

(* Checks a declaration's key=value tokens in token order against
   [spec] (the first unknown key, malformed value or unknown name
   raises at its token), then reads the declaration's values; a key
   given twice keeps its last value. *)
let options lineno what opts spec =
  let kvs =
    List.fold_left
      (fun kvs tok ->
        let k, v = split_kv lineno tok in
        match List.assoc_opt k spec.keys with
        | Some check ->
            check lineno k v;
            (k, v) :: kvs
        | None -> error lineno "unknown %s option %s" what k)
      [] opts
  in
  spec.read lineno kvs

(* A node named on a network must be attached to it. *)
let check_on lineno net node =
  if not (Fabric.attached net.fabric node) then
    error lineno "node %S is not on network %S" node.Node.name
      (Fabric.name net.fabric)

let declare lineno table what name v =
  if Hashtbl.mem table name then error lineno "duplicate %s %S" what name;
  Hashtbl.add table name v

let parse_line t lineno line =
  let fail fmt = error lineno fmt in
  match tokenize line with
  | [] -> ()
  | "network" :: name :: opts ->
      options lineno "network" opts
        (let+ kind = required "type" network_type "network needs type="
         and+ window = opt "window" int
         and+ max_retries = opt "max_retries" int
         and+ credits = opt "credits" (at_least 1)
         and+ _ =
           opt "gw_pool" (fun l _ _ ->
               error l "gw_pool= is a vchannel option (gateway forwarding pool)")
         in
         if kind <> Tcp_k && (window <> None || max_retries <> None) then
           fail "window=/max_retries= apply to tcp networks only";
         if kind <> Bip_k && credits <> None then
           fail
             "credits= applies to bip networks only (use vchannel credits= \
              for end-to-end flow control)";
         let net =
           make_network t.cf_engine ?window ?max_retries ?credits kind name
         in
         (* A previously declared fault plane covers every later fabric. *)
         Option.iter (Fabric.set_faults net.fabric) t.cf_faults;
         declare lineno t.nets "network" name net;
         t.net_order <- name :: t.net_order)
  | "faults" :: opts ->
      if t.cf_faults <> None then fail "duplicate faults declaration";
      options lineno "faults" opts
        (let+ seed = required "seed" int "faults needs seed=" in
         let plane =
           Simnet.Faults.create t.cf_engine ~seed:(Int64.of_int seed)
         in
         Hashtbl.iter (fun _ net -> Fabric.set_faults net.fabric plane) t.nets;
         t.cf_faults <- Some plane)
  | "fault" :: kind :: opts ->
      let plane =
        match t.cf_faults with
        | Some p -> p
        | None -> fail "fault requires a prior faults seed=N declaration"
      in
      options lineno "fault" opts
        (let+ net = opt "net" (find t.nets "network")
         and+ who = opt "node" (find t.node_tbl "node")
         and+ rate = opt "rate" float
         and+ mb_s = opt "mb_s" float
         and+ at = opt "at_us" float
         and+ dur = opt "for_us" float
         and+ restart = opt "restart_after_us" float
         and+ jitter = opt "jitter_us" float in
         let need what = function
           | Some v -> v
           | None -> fail "fault %s needs %s=" kind what
         in
         let node () = need "node" who in
         let rank () = (node ()).Node.id in
         (* A link fault names a network and one of its nodes. *)
         let link () =
           let net = need "net" net in
           check_on lineno net (node ());
           Fabric.name net.fabric
         in
         let at_time () = Time.add Time.zero (Time.us (need "at_us" at)) in
         let duration () = Time.us (need "for_us" dur) in
         match kind with
         | "drop" ->
             Simnet.Faults.set_drop plane ~fabric:(link ()) ~node:(rank ())
               ~rate:(need "rate" rate)
         | "corrupt" ->
             Simnet.Faults.set_corrupt plane ~fabric:(link ()) ~node:(rank ())
               ~rate:(need "rate" rate)
         | "duplicate" ->
             Simnet.Faults.set_duplicate plane ~fabric:(link ()) ~node:(rank ())
               ~rate:(need "rate" rate)
         | "reorder" ->
             Simnet.Faults.set_reorder plane ~fabric:(link ()) ~node:(rank ())
               ~rate:(need "rate" rate)
               ~jitter:(Time.us (need "jitter_us" jitter))
         | "flap" ->
             Simnet.Faults.flap_link plane ~fabric:(link ()) ~node:(rank ())
               ~at:(at_time ()) ~duration:(duration ())
         | "slow" ->
             Simnet.Faults.slow_receiver plane ~fabric:(link ()) ~node:(rank ())
               ~mb_per_s:(need "mb_s" mb_s)
         | "crash" ->
             Simnet.Faults.crash_node plane ~node:(rank ()) ~at:(at_time ())
               ?restart_after:(Option.map Time.us restart) ()
         | "stall" ->
             Simnet.Faults.stall_pci plane (node ()) ~at:(at_time ())
               ~duration:(duration ())
         | other ->
             fail
               "unknown fault kind %S \
                (drop|corrupt|duplicate|reorder|flap|slow|crash|stall)"
               other)
  | "node" :: name :: opts ->
      options lineno "node" opts
        (let+ nets = value "nets" names [] in
         let id = Hashtbl.length t.node_tbl in
         let n = Node.create t.cf_engine ~name ~id in
         declare lineno t.node_tbl "node" name n;
         t.node_order <- name :: t.node_order;
         List.iter
           (fun net -> (find_or lineno t.nets "network" net).attach_node n)
           nets)
  | "channel" :: name :: opts ->
      let d = Config.default in
      options lineno "channel" opts
        (let+ net =
           required "net" (find t.nets "network") "channel needs net="
         and+ members = value "nodes" names []
         and+ sisci_slot_payload =
           value "slot_payload" (at_least 1) d.sisci_slot_payload
         and+ sisci_dma_threshold =
           value "dma_threshold" (at_least 1) d.sisci_dma_threshold
         and+ rendezvous =
           opt "rendezvous" (fun l k -> function
             | "auto" -> `Auto
             | "off" -> `Fixed None
             | v -> `Fixed (Some (at_least 1 l k v)))
         and+ regcache_entries =
           value "regcache" (at_least 0) d.regcache_entries
         and+ regcache_bytes =
           value "regcache_bytes" (some (at_least 1)) d.regcache_bytes
         and+ aggregation = value "aggregation" bool d.aggregation
         and+ checked = value "checked" bool d.checked
         and+ sisci_ring_slots = value "slots" int d.sisci_ring_slots
         and+ tcp_connect_timeout =
           value "connect_timeout_us" (some span) d.tcp_connect_timeout
         and+ sisci_use_dma = value "dma" bool d.sisci_use_dma
         and+ rx_interaction =
           value "rx"
             (choice
                [
                  ("poll", Config.Rx_poll);
                  ("interrupt", Config.Rx_interrupt);
                  ("adaptive", Config.(Rx_adaptive default_adaptive_window));
                ])
             d.rx_interaction
         in
         (* rendezvous=auto resolves against the channel's fabric. *)
         let rendezvous_threshold =
           match rendezvous with
           | None -> d.rendezvous_threshold
           | Some (`Fixed threshold) -> threshold
           | Some `Auto -> (
               let fabric = string_of_kind net.kind in
               match Crossover.lookup ~fabric () with
               | exception Json.Error msg -> fail "rendezvous=auto: %s" msg
               | Some _ as bytes_count -> bytes_count
               | None ->
                   fail
                     "rendezvous=auto: no measured crossover for fabric %S in \
                      %s (run: madbench crossover)"
                     fabric Crossover.default_file)
         in
         let config =
           {
             Config.checked;
             aggregation;
             sisci_ring_slots;
             sisci_use_dma;
             sisci_slot_payload;
             sisci_dma_threshold;
             rendezvous_threshold;
             regcache_entries;
             regcache_bytes;
             rx_interaction;
             tcp_connect_timeout;
           }
         in
         let ranks =
           List.map
             (fun node_name ->
               let node = find_or lineno t.node_tbl "node" node_name in
               check_on lineno net node;
               node.Node.id)
             members
         in
         if ranks = [] then fail "channel needs nodes=";
         let chan =
           Channel.create t.cf_session (net.driver_of ()) ~config ~ranks ()
         in
         declare lineno t.chan_tbl "channel" name chan;
         t.chan_order <- name :: t.chan_order)
  | "vchannel" :: name :: opts ->
      (* Ranges are Vchannel.create's, Membership.create's and
         Collectives.create's to judge ([load] reports their rejections
         on this line); only the prerequisites between options are here. *)
      options lineno "vchannel" opts
        (let+ chans =
           value "channels"
             (fun l k v ->
               List.map (find_or l t.chan_tbl "channel") (names l k v))
             []
         and+ mtu = opt "mtu" int
         and+ gateway_overhead = opt "gateway_overhead_us" span
         and+ ingress_cap_mb_s = opt "ingress_cap" float
         and+ reliable = value "reliable" bool false
         and+ patience = opt "patience_us" span
         and+ credits = opt "credits" int
         and+ gw_pool = opt "gw_pool" int
         and+ sched =
           opt "sched" (choice [ ("fifo", `Fifo); ("aggreg", `Aggreg) ])
         and+ aggr_max = opt "aggr_max" int
         and+ aggr_flush = opt "aggr_flush_us" span
         and+ version = opt "version" int
         and+ coordinator = opt "coordinator" (find t.node_tbl "node")
         and+ election =
           value "election" (choice [ ("on", true); ("off", false) ]) false
         and+ topo_quorum = opt "topo_quorum" int
         and+ coll =
           opt "coll"
             (choice
                [
                  ("tree", Madeleine.Collectives.Tree);
                  ("flat", Madeleine.Collectives.Flat);
                ])
         and+ coll_fanout = opt "coll_fanout" int
         and+ coll_quorum = opt "coll_quorum" int in
         if chans = [] then fail "vchannel needs channels=";
         (match (sched, aggr_max, aggr_flush) with
         | Some `Aggreg, _, _ | _, None, None -> ()
         | _, Some _, _ -> fail "aggr_max= requires sched=aggreg"
         | _, _, Some _ -> fail "aggr_flush_us= requires sched=aggreg");
         (match (coll, coll_fanout) with
         | Some Madeleine.Collectives.Tree, _ | _, None -> ()
         | _, Some _ -> fail "coll_fanout= requires coll=tree");
         if coll = None && coll_quorum <> None then
           fail "coll_quorum= requires coll=";
         let sched =
           Option.map
             (function
               | `Fifo -> Madeleine.Sched.Fifo
               | `Aggreg -> Madeleine.Sched.Aggreg { aggr_max; aggr_flush })
             sched
         in
         let faults =
           match (reliable, t.cf_faults) with
           | false, _ -> None
           | true, None ->
               fail "reliable=true requires a prior faults seed=N declaration"
           | true, plane -> plane
         in
         let vc =
           Madeleine.Vchannel.create t.cf_session ?mtu ?patience
             ?gateway_overhead ?ingress_cap_mb_s ?credits ?gw_pool ?faults
             ?sched chans
         in
         declare lineno t.vchan_tbl "vchannel" name vc;
         (match version with
         | Some version ->
             Hashtbl.replace t.memb_tbl name
               (Madeleine.Membership.create
                  ?coordinator:(Option.map (fun n -> n.Node.id) coordinator)
                  ~election ?topo_quorum ~version vc)
         | None
           when election || Option.is_some coordinator
                || Option.is_some topo_quorum ->
             fail "coordinator=, election=on, topo_quorum= need version="
         | None -> ());
         Option.iter
           (fun algo ->
             Hashtbl.replace t.coll_tbl name
               (Madeleine.Collectives.create ~algo ?fanout:coll_fanout
                  ?quorum:coll_quorum vc))
           coll;
         t.vchan_order <- name :: t.vchan_order)
  | keyword :: _ -> fail "unknown declaration %S" keyword

let load text =
  let cf_engine = Worlds.engine () in
  let t =
    {
      cf_engine;
      cf_session = Madeleine.Session.create cf_engine;
      cf_faults = None;
      nets = Hashtbl.create 8;
      node_tbl = Hashtbl.create 16;
      node_order = [];
      chan_tbl = Hashtbl.create 8;
      chan_order = [];
      vchan_tbl = Hashtbl.create 4;
      vchan_order = [];
      memb_tbl = Hashtbl.create 4;
      coll_tbl = Hashtbl.create 4;
      net_order = [];
    }
  in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         (* The library validates what it is handed (cross-option rules
            included); its rejections carry the declaration's line. *)
         try parse_line t (i + 1) line
         with Invalid_argument msg -> raise (Parse_error (i + 1, msg)));
  t

let load_file path = load (In_channel.with_open_bin path In_channel.input_all)
