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

let split_kv lineno tok =
  match String.index_opt tok '=' with
  | None -> raise (Parse_error (lineno, Printf.sprintf "expected key=value, got %S" tok))
  | Some i ->
      (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let parse_bool lineno key v =
  match v with
  | "true" -> true
  | "false" -> false
  | _ -> raise (Parse_error (lineno, Printf.sprintf "%s expects true/false, got %S" key v))

let parse_int lineno key v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> raise (Parse_error (lineno, Printf.sprintf "%s expects an integer, got %S" key v))

let parse_float lineno key v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> f
  | _ ->
      raise
        (Parse_error
           (lineno, Printf.sprintf "%s expects a finite number, got %S" key v))

let comma v = String.split_on_char ',' v |> List.filter (fun s -> s <> "")

let string_of_kind = function
  | Sisci_k -> "sisci"
  | Bip_k -> "bip"
  | Tcp_k -> "tcp"
  | Via_k -> "via"
  | Sbp_k -> "sbp"

let kind_of_string lineno = function
  | "sisci" -> Sisci_k
  | "bip" -> Bip_k
  | "tcp" -> Tcp_k
  | "via" -> Via_k
  | "sbp" -> Sbp_k
  | other -> raise (Parse_error (lineno, Printf.sprintf "unknown network type %S" other))

let find_or lineno table what name =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None -> raise (Parse_error (lineno, Printf.sprintf "unknown %s %S" what name))

(* A node named on a network must be attached to it. *)
let check_on lineno net node =
  if not (Fabric.attached net.fabric node) then
    raise
      (Parse_error
         (lineno,
          Printf.sprintf "node %S is not on network %S" node.Node.name
            (Fabric.name net.fabric)))

let declare lineno table what name v =
  if Hashtbl.mem table name then
    raise (Parse_error (lineno, Printf.sprintf "duplicate %s %S" what name));
  Hashtbl.add table name v

let parse_line t lineno line =
  match tokenize line with
  | [] -> ()
  | "network" :: name :: opts ->
      let kind = ref None in
      let window = ref None and max_retries = ref None in
      let credits = ref None in
      List.iter
        (fun tok ->
          match split_kv lineno tok with
          | "type", v -> kind := Some (kind_of_string lineno v)
          | "window", v -> window := Some (parse_int lineno "window" v)
          | "max_retries", v ->
              max_retries := Some (parse_int lineno "max_retries" v)
          | "credits", v ->
              let n = parse_int lineno "credits" v in
              if n < 1 then
                raise (Parse_error (lineno, "credits expects an integer >= 1"));
              credits := Some n
          | "gw_pool", _ ->
              raise
                (Parse_error
                   (lineno,
                    "gw_pool= is a vchannel option (gateway forwarding pool)"))
          | k, _ -> raise (Parse_error (lineno, "unknown network option " ^ k)))
        opts;
      let kind =
        match !kind with
        | Some k -> k
        | None -> raise (Parse_error (lineno, "network needs type="))
      in
      (match kind with
      | Tcp_k -> ()
      | _ ->
          if !window <> None || !max_retries <> None then
            raise
              (Parse_error
                 (lineno, "window=/max_retries= apply to tcp networks only")));
      (match kind with
      | Bip_k -> ()
      | _ ->
          if !credits <> None then
            raise
              (Parse_error
                 (lineno,
                  "credits= applies to bip networks only (use vchannel \
                   credits= for end-to-end flow control)")));
      let net =
        make_network t.cf_engine ?window:!window ?max_retries:!max_retries
          ?credits:!credits kind name
      in
      (* A previously declared fault plane covers every later fabric. *)
      (match t.cf_faults with
      | Some plane -> Fabric.set_faults net.fabric plane
      | None -> ());
      declare lineno t.nets "network" name net;
      t.net_order <- name :: t.net_order
  | "faults" :: opts ->
      if t.cf_faults <> None then
        raise (Parse_error (lineno, "duplicate faults declaration"));
      let seed = ref None in
      List.iter
        (fun tok ->
          match split_kv lineno tok with
          | "seed", v -> seed := Some (parse_int lineno "seed" v)
          | k, _ -> raise (Parse_error (lineno, "unknown faults option " ^ k)))
        opts;
      let seed =
        match !seed with
        | Some s -> s
        | None -> raise (Parse_error (lineno, "faults needs seed="))
      in
      let plane = Simnet.Faults.create t.cf_engine ~seed:(Int64.of_int seed) in
      Hashtbl.iter (fun _ net -> Fabric.set_faults net.fabric plane) t.nets;
      t.cf_faults <- Some plane
  | "fault" :: kind :: opts ->
      let plane =
        match t.cf_faults with
        | Some p -> p
        | None ->
            raise
              (Parse_error
                 (lineno, "fault requires a prior faults seed=N declaration"))
      in
      let net = ref None and who = ref None in
      let rate = ref None and at = ref None and mb_s = ref None in
      let dur = ref None and restart = ref None in
      List.iter
        (fun tok ->
          match split_kv lineno tok with
          | "net", v -> net := Some (find_or lineno t.nets "network" v)
          | "node", v -> who := Some (find_or lineno t.node_tbl "node" v)
          | "rate", v -> rate := Some (parse_float lineno "rate" v)
          | "mb_s", v -> mb_s := Some (parse_float lineno "mb_s" v)
          | "at_us", v -> at := Some (parse_float lineno "at_us" v)
          | "for_us", v -> dur := Some (parse_float lineno "for_us" v)
          | "restart_after_us", v ->
              restart := Some (parse_float lineno "restart_after_us" v)
          | k, _ -> raise (Parse_error (lineno, "unknown fault option " ^ k)))
        opts;
      let need what = function
        | Some v -> v
        | None ->
            raise
              (Parse_error
                 (lineno, Printf.sprintf "fault %s needs %s=" kind what))
      in
      let node () = need "node" !who in
      let rank () = (node ()).Node.id in
      (* A link fault names a network and one of its nodes. *)
      let link () =
        let net = need "net" !net in
        check_on lineno net (node ());
        Fabric.name net.fabric
      in
      let at_time () = Time.add Time.zero (Time.us (need "at_us" !at)) in
      let duration () = Time.us (need "for_us" !dur) in
      (match kind with
      | "drop" ->
          Simnet.Faults.set_drop plane ~fabric:(link ()) ~node:(rank ())
            ~rate:(need "rate" !rate)
      | "corrupt" ->
          Simnet.Faults.set_corrupt plane ~fabric:(link ()) ~node:(rank ())
            ~rate:(need "rate" !rate)
      | "flap" ->
          Simnet.Faults.flap_link plane ~fabric:(link ()) ~node:(rank ())
            ~at:(at_time ()) ~duration:(duration ())
      | "slow" ->
          Simnet.Faults.slow_receiver plane ~fabric:(link ()) ~node:(rank ())
            ~mb_per_s:(need "mb_s" !mb_s)
      | "crash" ->
          Simnet.Faults.crash_node plane ~node:(rank ()) ~at:(at_time ())
            ?restart_after:(Option.map Time.us !restart) ()
      | "stall" ->
          Simnet.Faults.stall_pci plane (node ()) ~at:(at_time ())
            ~duration:(duration ())
      | other ->
          raise
            (Parse_error
               (lineno,
                Printf.sprintf
                  "unknown fault kind %S (drop|corrupt|flap|slow|crash|stall)"
                  other)))
  | "node" :: name :: opts ->
      let nets = ref [] in
      List.iter
        (fun tok ->
          match split_kv lineno tok with
          | "nets", v -> nets := comma v
          | k, _ -> raise (Parse_error (lineno, "unknown node option " ^ k)))
        opts;
      let id = Hashtbl.length t.node_tbl in
      let n = Node.create t.cf_engine ~name ~id in
      declare lineno t.node_tbl "node" name n;
      t.node_order <- name :: t.node_order;
      List.iter
        (fun net_name -> (find_or lineno t.nets "network" net_name).attach_node n)
        !nets
  | "channel" :: name :: opts ->
      let net = ref None and members = ref [] in
      let config = ref Config.default in
      (* rendezvous=auto resolves against the channel's fabric, which
         may be named later on the line — defer until net= is known. *)
      let rendezvous_auto = ref false in
      let positive_int key v =
        let n = parse_int lineno key v in
        if n < 1 then
          raise
            (Parse_error (lineno, Printf.sprintf "%s expects an integer >= 1" key));
        n
      in
      List.iter
        (fun tok ->
          match split_kv lineno tok with
          | "net", v -> net := Some (find_or lineno t.nets "network" v)
          | "nodes", v -> members := comma v
          | "slot_payload", v ->
              config :=
                { !config with sisci_slot_payload = positive_int "slot_payload" v }
          | "dma_threshold", v ->
              config :=
                { !config with sisci_dma_threshold = positive_int "dma_threshold" v }
          | "rendezvous", v -> (
              match v with
              | "auto" -> rendezvous_auto := true
              | "off" ->
                  rendezvous_auto := false;
                  config := { !config with rendezvous_threshold = None }
              | _ ->
                  config :=
                    { !config with
                      rendezvous_threshold = Some (positive_int "rendezvous" v) })
          | "regcache", v ->
              let n = parse_int lineno "regcache" v in
              if n < 0 then
                raise
                  (Parse_error (lineno, "regcache expects an integer >= 0"));
              config := { !config with regcache_entries = n }
          | "regcache_bytes", v ->
              config :=
                { !config with
                  regcache_bytes = Some (positive_int "regcache_bytes" v) }
          | "aggregation", v ->
              config := { !config with aggregation = parse_bool lineno "aggregation" v }
          | "checked", v ->
              config := { !config with checked = parse_bool lineno "checked" v }
          | "slots", v ->
              config := { !config with sisci_ring_slots = parse_int lineno "slots" v }
          | "connect_timeout_us", v ->
              config :=
                { !config with
                  tcp_connect_timeout =
                    Some (Time.us (parse_float lineno "connect_timeout_us" v)) }
          | "dma", v ->
              config := { !config with sisci_use_dma = parse_bool lineno "dma" v }
          | "rx", v ->
              let rx_interaction =
                match v with
                | "poll" -> Config.Rx_poll
                | "interrupt" -> Config.Rx_interrupt
                | "adaptive" -> Config.Rx_adaptive Config.default_adaptive_window
                | _ -> raise (Parse_error (lineno, "rx expects poll|interrupt|adaptive"))
              in
              config := { !config with rx_interaction }
          | k, _ -> raise (Parse_error (lineno, "unknown channel option " ^ k)))
        opts;
      let net =
        match !net with
        | Some n -> n
        | None -> raise (Parse_error (lineno, "channel needs net="))
      in
      (if !rendezvous_auto then
         let fabric = string_of_kind net.kind in
         match Crossover.lookup ~fabric () with
         | exception Json.Error msg ->
             raise (Parse_error (lineno, "rendezvous=auto: " ^ msg))
         | Some bytes_count ->
             config := { !config with rendezvous_threshold = Some bytes_count }
         | None ->
             raise
               (Parse_error
                  (lineno,
                   Printf.sprintf
                     "rendezvous=auto: no measured crossover for fabric %S \
                      in %s (run: madbench crossover)"
                     fabric Crossover.default_file)));
      let ranks =
        List.map
          (fun node_name ->
            let node = find_or lineno t.node_tbl "node" node_name in
            check_on lineno net node;
            node.Node.id)
          !members
      in
      if ranks = [] then raise (Parse_error (lineno, "channel needs nodes="));
      let chan =
        Channel.create t.cf_session (net.driver_of ()) ~config:!config ~ranks ()
      in
      declare lineno t.chan_tbl "channel" name chan;
      t.chan_order <- name :: t.chan_order
  | "vchannel" :: name :: opts ->
      let chans = ref [] and mtu = ref None in
      let overhead = ref None and cap = ref None in
      let reliable = ref false and patience = ref None in
      let credits = ref None and gw_pool = ref None in
      let sched = ref None and aggr_max = ref None and aggr_flush = ref None in
      let version = ref None and coordinator = ref None in
      let election = ref false and topo_quorum = ref None in
      let coll = ref None and coll_fanout = ref None and coll_quorum = ref None in
      (* Ranges are Vchannel.create's, Membership.create's and
         Collectives.create's to judge ([load] reports their rejections
         on this line); only the prerequisites between options are here. *)
      List.iter
        (fun tok ->
          match split_kv lineno tok with
          | "channels", v ->
              chans :=
                List.map (fun cn -> find_or lineno t.chan_tbl "channel" cn) (comma v)
          | "mtu", v -> mtu := Some (parse_int lineno "mtu" v)
          | "gateway_overhead_us", v ->
              overhead := Some (Time.us (parse_float lineno "gateway_overhead_us" v))
          | "ingress_cap", v -> cap := Some (parse_float lineno "ingress_cap" v)
          | "reliable", v -> reliable := parse_bool lineno "reliable" v
          | "patience_us", v ->
              patience := Some (Time.us (parse_float lineno "patience_us" v))
          | "credits", v -> credits := Some (parse_int lineno "credits" v)
          | "gw_pool", v -> gw_pool := Some (parse_int lineno "gw_pool" v)
          | "sched", v -> (
              match v with
              | "fifo" -> sched := Some `Fifo
              | "aggreg" -> sched := Some `Aggreg
              | _ -> raise (Parse_error (lineno, "sched expects fifo|aggreg")))
          | "aggr_max", v -> aggr_max := Some (parse_int lineno "aggr_max" v)
          | "aggr_flush_us", v ->
              aggr_flush :=
                Some (Time.us (parse_float lineno "aggr_flush_us" v))
          | "version", v -> version := Some (parse_int lineno "version" v)
          | "coordinator", v ->
              coordinator :=
                Some (find_or lineno t.node_tbl "node" v).Node.id
          | "election", v -> (
              match v with
              | "on" -> election := true
              | "off" -> election := false
              | _ -> raise (Parse_error (lineno, "election expects on|off")))
          | "topo_quorum", v ->
              topo_quorum := Some (parse_int lineno "topo_quorum" v)
          | "coll", v -> (
              match v with
              | "tree" -> coll := Some Madeleine.Collectives.Tree
              | "flat" -> coll := Some Madeleine.Collectives.Flat
              | _ -> raise (Parse_error (lineno, "coll expects tree|flat")))
          | "coll_fanout", v ->
              coll_fanout := Some (parse_int lineno "coll_fanout" v)
          | "coll_quorum", v ->
              coll_quorum := Some (parse_int lineno "coll_quorum" v)
          | k, _ -> raise (Parse_error (lineno, "unknown vchannel option " ^ k)))
        opts;
      if !chans = [] then raise (Parse_error (lineno, "vchannel needs channels="));
      (match (!sched, !aggr_max, !aggr_flush) with
      | Some `Aggreg, _, _ | _, None, None -> ()
      | _, Some _, _ ->
          raise (Parse_error (lineno, "aggr_max= requires sched=aggreg"))
      | _, _, Some _ ->
          raise (Parse_error (lineno, "aggr_flush_us= requires sched=aggreg")));
      (match (!coll, !coll_fanout) with
      | Some Madeleine.Collectives.Tree, _ | _, None -> ()
      | _, Some _ ->
          raise (Parse_error (lineno, "coll_fanout= requires coll=tree")));
      (match (!coll, !coll_quorum) with
      | None, Some _ ->
          raise (Parse_error (lineno, "coll_quorum= requires coll="))
      | _ -> ());
      let vc_sched =
        match !sched with
        | None -> None
        | Some `Fifo -> Some Madeleine.Sched.Fifo
        | Some `Aggreg ->
            Some
              (Madeleine.Sched.Aggreg
                 { aggr_max = !aggr_max; aggr_flush = !aggr_flush })
      in
      let vc_faults =
        if not !reliable then None
        else
          match t.cf_faults with
          | Some _ as plane -> plane
          | None ->
              raise
                (Parse_error
                   (lineno,
                    "reliable=true requires a prior faults seed=N declaration"))
      in
      let vc =
        Madeleine.Vchannel.create t.cf_session ?mtu:!mtu ?patience:!patience
          ?gateway_overhead:!overhead ?ingress_cap_mb_s:!cap
          ?credits:!credits ?gw_pool:!gw_pool ?faults:vc_faults ?sched:vc_sched
          !chans
      in
      declare lineno t.vchan_tbl "vchannel" name vc;
      (match !version with
      | Some version ->
          Hashtbl.replace t.memb_tbl name
            (Madeleine.Membership.create ?coordinator:!coordinator
               ~election:!election ?topo_quorum:!topo_quorum ~version vc)
      | None when !election || !coordinator <> None || !topo_quorum <> None ->
          raise
            (Parse_error
               ( lineno,
                 "coordinator=, election=on, topo_quorum= need version=" ))
      | None -> ());
      (match !coll with
      | None -> ()
      | Some algo ->
          Hashtbl.replace t.coll_tbl name
            (Madeleine.Collectives.create ~algo ?fanout:!coll_fanout
               ?quorum:!coll_quorum vc));
      t.vchan_order <- name :: t.vchan_order
  | keyword :: _ ->
      raise (Parse_error (lineno, Printf.sprintf "unknown declaration %S" keyword))

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
