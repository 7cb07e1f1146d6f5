(* The ablations section of `madbench figures`: each design choice
   called out in DESIGN.md varied as the points of one figure, so the
   output is the same for any worker count and `--fingerprints` lists
   every world an ablation builds. *)

module Time = Marcel.Time
module H = Harness

(* One ablation: a heading, then one point per parameter, labelled
   [label p] and measured by [run p], printed as [line p row]. *)
let ablation heading params ~label ~run line =
  Sweeps.figure
    (List.map (fun p -> (label p, fun () -> run p)) params)
    (fun rows -> heading ^ String.concat "" (List.map2 line params rows))

(* SISCI ping-pong bandwidth of 256 kB messages under [config]. *)
let sisci_256k config =
  Time.rate_mb_s ~bytes_count:(1 lsl 18)
    (H.mad_pingpong (H.sisci_world ~config ()) ~bytes_count:(1 lsl 18)
       ~iters:4)

(* 1. SISCI dual buffering. *)
let a1 =
  ablation "A1. SISCI regular-TM ring depth (256 kB messages):\n" [ 1; 2; 3 ]
    ~label:(Printf.sprintf "A1/slots-%d")
    ~run:(fun s ->
      sisci_256k { Madeleine.Config.default with sisci_ring_slots = s })
    (Printf.sprintf "      %d slot(s): %6.1f MB/s\n")

(* 2. The disabled DMA TM. *)
let a2 =
  let bw_dma use_dma =
    sisci_256k { Madeleine.Config.default with sisci_use_dma = use_dma }
  in
  ablation "A2. SISCI large-block engine (256 kB messages):\n" [ false; true ]
    ~label:(fun dma -> if dma then "A2/dma" else "A2/pio")
    ~run:bw_dma
    (fun dma v ->
      if dma then
        Printf.sprintf
          "      DMA TM:         %6.1f MB/s  (why the paper ships it \
           disabled)\n"
          v
      else Printf.sprintf "      PIO regular TM: %6.1f MB/s\n" v)

(* One message of [fields] over TCP; returns the one-way time in us. *)
let tcp_one_way ?config ?r_mode fields =
  let w = H.tcp_world ?config () in
  let module Mad = Madeleine.Api in
  let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
  let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
  Time.to_us
    (H.one_way w.H.engine ~messages:1
       ~send:(fun _ ->
         let oc = Mad.begin_packing ep0 ~remote:1 in
         List.iter (Mad.pack oc ?r_mode) fields;
         Mad.end_packing oc)
       ~recv:(fun _ ->
         let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
         List.iter
           (fun f -> Mad.unpack ic ?r_mode (Bytes.create (Bytes.length f)))
           fields;
         Mad.end_unpacking ic))

(* 3. Aggregation in the dynamic BMMs, over TCP's expensive syscalls. *)
let a3 =
  let tcp_multi_field aggregation =
    tcp_one_way
      ~config:{ Madeleine.Config.default with aggregation }
      (List.init 8 (fun i -> H.payload 64 (Int64.of_int i)))
  in
  ablation "A3. BMM aggregation over TCP (8-field message, one-way):\n"
    [ true; false ]
    ~label:(fun grouped -> if grouped then "A3/grouped" else "A3/eager")
    ~run:tcp_multi_field
    (fun grouped v ->
      if grouped then Printf.sprintf "      grouped (writev): %7.1f us\n" v
      else Printf.sprintf "      eager per-field:  %7.1f us\n" v)

(* 4. Gateway software overhead. *)
let a4 =
  ablation "A4. Gateway per-packet overhead (SCI->Myrinet, 8 kB packets):\n"
    [ 0.; 25.; 50.; 100.; 200. ]
    ~label:(Printf.sprintf "A4/%.0fus")
    ~run:(fun us ->
      H.forwarding_bandwidth ~gateway_overhead:(Time.us us) ~mtu:8192 ~src:0
        ~dst:2 ~bytes_count:(1 lsl 19) ())
    (Printf.sprintf "      %5.0f us/step: %6.1f MB/s\n")

(* 5. The zero-copy gateway receive (static-buffer borrowing, 6.1). *)
let a5 =
  ablation "A5. Gateway buffer borrowing (32 kB packets):\n" [ false; true ]
    ~label:(fun copy -> if copy then "A5/copy" else "A5/borrow")
    ~run:(fun copy ->
      H.forwarding_bandwidth ~extra_gateway_copy:copy ~mtu:32768 ~src:0 ~dst:2
        ~bytes_count:(1 lsl 19) ())
    (fun copy v ->
      if copy then
        Printf.sprintf "      naive temporary + extra copy:  %6.1f MB/s\n" v
      else Printf.sprintf "      borrow outgoing static buffer: %6.1f MB/s\n" v)

(* 6. Express flushing: the latency cost of receive_EXPRESS on a
   network where it is not free. *)
let a6 =
  let express_cost r_mode =
    tcp_one_way ~r_mode (List.init 4 (fun _ -> Bytes.create 32))
  in
  ablation
    "A6. receive mode on TCP (4 small fields; EXPRESS forces per-field\n\
    \     flushes where CHEAPER lets them group):\n"
    [ Madeleine.Iface.Receive_cheaper; Madeleine.Iface.Receive_express ]
    ~label:(function
      | Madeleine.Iface.Receive_cheaper -> "A6/cheaper"
      | Madeleine.Iface.Receive_express -> "A6/express")
    ~run:express_cost
    (fun r_mode v ->
      match r_mode with
      | Madeleine.Iface.Receive_cheaper ->
          Printf.sprintf "      all CHEAPER: %7.1f us\n" v
      | Madeleine.Iface.Receive_express ->
          Printf.sprintf "      all EXPRESS: %7.1f us\n" v)

(* 7. Gateway bandwidth control: the paper's future work ("some
   sophisticated bandwidth control mechanism is needed to regulate the
   incoming communication flow on gateways"), implemented. Pacing the
   Myrinet ingress keeps its DMA from starving the outgoing SCI PIO. *)
let a7 =
  ablation
    "A7. Gateway ingress regulation, Myrinet->SCI at 32 kB packets (the\n\
    \     paper's proposed future work, implemented):\n"
    [ None; Some 60.; Some 45.; Some 40. ]
    ~label:(function
      | None -> "A7/unlimited" | Some c -> Printf.sprintf "A7/%.0f" c)
    ~run:(fun cap ->
      H.forwarding_bandwidth ?ingress_cap_mb_s:cap ~mtu:32768 ~src:2 ~dst:0
        ~bytes_count:(1 lsl 20) ())
    (fun cap v ->
      Printf.sprintf "      ingress %-9s %6.1f MB/s\n"
        (match cap with
        | None -> "unlimited:"
        | Some c -> Printf.sprintf "%.0f MB/s:" c)
        v)

(* 8. Adaptive polling/interrupts: the other future-work item of §7,
   implemented. Hot ping-pongs should keep polling latency; the win of
   interrupts is the bounded CPU burn while waiting. *)
let rx_run rx_interaction ~gap_us =
  let config = { Madeleine.Config.default with rx_interaction } in
  let w = H.sisci_world ~config () in
  let module Mad = Madeleine.Api in
  let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
  let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
  let send ep ~remote =
    let oc = Mad.begin_packing ep ~remote in
    Mad.pack oc ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
    Mad.end_packing oc
  and recv ep ~remote =
    let ic = Mad.begin_unpacking_from ep ~remote in
    Mad.unpack ic ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
    Mad.end_unpacking ic
  in
  let iters = 20 in
  (* Only the round trips count, not the think time between them. *)
  let lat = ref 0 in
  ignore
    (H.pingpong w.H.engine ~iters
       ~ping:(fun () ->
         (* The receiver is already waiting when the message leaves:
            idle gaps between messages are where polling burns CPU. *)
         Marcel.Engine.sleep (Time.us gap_us);
         let t0 = Marcel.Engine.now w.H.engine in
         send ep0 ~remote:1;
         recv ep0 ~remote:1;
         lat := !lat + Time.diff (Marcel.Engine.now w.H.engine) t0)
       ~pong:(fun () ->
         recv ep1 ~remote:0;
         send ep1 ~remote:0));
  Time.to_us (!lat / (2 * iters))

let a8 =
  ablation
    "A8. Receive interaction (4 B round trips with 1 ms think time;\n\
    \     one-way latency -- interrupts trade latency for bounded CPU burn):\n"
    Madeleine.Config.
      [
        ("poll", "polling:", Rx_poll);
        ("interrupt", "interrupts:", Rx_interrupt);
        ("adaptive", "adaptive (30 us):", Rx_adaptive default_adaptive_window);
      ]
    ~label:(fun (name, _, _) -> "A8/" ^ name)
    ~run:(fun (_, _, mode) -> rx_run mode ~gap_us:1000.0)
    (fun (_, text, _) v -> Printf.sprintf "      %-18s %6.2f us\n" text v)

(* 9. Multiple adapters per node (§2.1): striping one transfer across
   two Myrinet rails. The node's single 33 MHz PCI bus, not the wire,
   is the ceiling — so on this hardware a second rail does not pay. *)
let dual_rail_bw rails =
  let module Channel = Madeleine.Channel in
  (* Rail i is network and channel myri-i; both nodes are on every rail. *)
  let nets = List.init rails (Printf.sprintf "myri-%d") in
  let on_all = String.concat "," nets in
  let cf =
    Clusterfile.load
      (String.concat "\n"
         (List.map (Printf.sprintf "network %s type=bip") nets
         @ [ "node n0 nets=" ^ on_all; "node n1 nets=" ^ on_all ]
         @ List.map
             (fun r -> Printf.sprintf "channel %s net=%s nodes=n0,n1" r r)
             nets))
  in
  let engine = Clusterfile.engine cf in
  let channels = List.map (Clusterfile.channel cf) nets in
  let per_rail = 1 lsl 20 / rails in
  List.iter
    (fun chan ->
      H.spawn_one_way engine ~messages:1
        ~send:(fun _ ->
          H.mad_send (Channel.endpoint chan ~rank:0) ~remote:1
            (Bytes.create per_rail))
        ~recv:(fun _ ->
          H.mad_recv (Channel.endpoint chan ~rank:1) ~remote:0
            (Bytes.create per_rail)))
    channels;
  Marcel.Engine.run engine;
  Time.rate_mb_s ~bytes_count:(1 lsl 20) (Marcel.Engine.now engine)

let a9 =
  ablation "A9. Multi-adapter striping over Myrinet rails (1 MB transfer):\n"
    [ 1; 2; 3 ]
    ~label:(Printf.sprintf "A9/rails-%d")
    ~run:dual_rail_bw
    (Printf.sprintf "      %d rail(s): %6.1f MB/s\n")

(* 10. Incast: several senders converge on one SCI receiver. The
   receiver's PCI bus (NIC-write class) is the shared bottleneck. *)
let incast senders =
  let module Mad = Madeleine.Api in
  let w = H.make_world ~n:(senders + 1) H.sisci_driver (Clusterfile.link "sisci") in
  let n = 1 lsl 19 in
  for s = 1 to senders do
    Marcel.Engine.spawn w.H.engine ~name:(Printf.sprintf "s%d" s) (fun () ->
        let oc =
          Mad.begin_packing
            (Madeleine.Channel.endpoint w.H.channel ~rank:s)
            ~remote:0
        in
        Mad.pack oc (Bytes.create n);
        Mad.end_packing oc)
  done;
  for _ = 1 to senders do
    Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
        let ic =
          Mad.begin_unpacking (Madeleine.Channel.endpoint w.H.channel ~rank:0)
        in
        Mad.unpack ic (Bytes.create n);
        Mad.end_unpacking ic)
  done;
  Marcel.Engine.run w.H.engine;
  Time.rate_mb_s ~bytes_count:(senders * n) (Marcel.Engine.now w.H.engine)

let a10 =
  ablation
    "A10. Incast over SCI (concurrent senders to one receiver, aggregate):\n"
    [ 1; 2; 4 ]
    ~label:(Printf.sprintf "A10/senders-%d")
    ~run:incast
    (Printf.sprintf "      %d sender(s): %6.1f MB/s\n")

let figures =
  Sweeps.figure []
    (fun _ ->
      Sweeps.section "Ablations -- the design choices called out in DESIGN.md"
        "")
  :: [ a1; a2; a3; a4; a5; a6; a7; a8; a9; a10 ]
