(* The ablations section of `madbench figures`: each design choice
   called out in DESIGN.md varied as Parsim jobs, printed in submission
   order, so the output is the same for any worker count. *)

module Time = Marcel.Time
module H = Harness

let run pool =
  print_string
    (Sweeps.section "Ablations -- the design choices called out in DESIGN.md" "");

  (* SISCI ping-pong bandwidth of 256 kB messages under [config]. *)
  let sisci_256k config =
    Time.rate_mb_s ~bytes_count:(1 lsl 18)
      (H.mad_pingpong (H.sisci_world ~config ()) ~bytes_count:(1 lsl 18)
         ~iters:4)
  in

  (* 1. SISCI dual buffering. *)
  let bw_slots slots =
    sisci_256k { Madeleine.Config.default with sisci_ring_slots = slots }
  in
  Printf.printf "A1. SISCI regular-TM ring depth (256 kB messages):\n";
  let slots = [ 1; 2; 3 ] in
  Parsim.run pool
    (List.map
       (fun s -> (Printf.sprintf "A1/slots-%d" s, fun () -> bw_slots s))
       slots)
  |> List.iter2
       (fun s v -> Printf.printf "      %d slot(s): %6.1f MB/s\n%!" s v)
       slots;

  (* 2. The disabled DMA TM. *)
  let bw_dma use_dma =
    sisci_256k { Madeleine.Config.default with sisci_use_dma = use_dma }
  in
  Printf.printf "A2. SISCI large-block engine (256 kB messages):\n";
  (match
     Parsim.run pool
       [
         ("A2/pio", fun () -> bw_dma false); ("A2/dma", fun () -> bw_dma true);
       ]
   with
  | [ pio; dma ] ->
      Printf.printf "      PIO regular TM: %6.1f MB/s\n%!" pio;
      Printf.printf
        "      DMA TM:         %6.1f MB/s  (why the paper ships it disabled)\n%!"
        dma
  | _ -> assert false);

  (* One message of [fields] over TCP; returns the one-way time in us. *)
  let tcp_one_way ?config ?r_mode fields =
    let w = H.tcp_world ?config () in
    let module Mad = Madeleine.Api in
    let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
    let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
    let finish = ref Time.zero in
    Marcel.Engine.spawn w.H.engine ~name:"s" (fun () ->
        let oc = Mad.begin_packing ep0 ~remote:1 in
        List.iter (Mad.pack oc ?r_mode) fields;
        Mad.end_packing oc);
    Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        List.iter
          (fun f -> Mad.unpack ic ?r_mode (Bytes.create (Bytes.length f)))
          fields;
        Mad.end_unpacking ic;
        finish := Marcel.Engine.now w.H.engine);
    Marcel.Engine.run w.H.engine;
    Time.to_us !finish
  in

  (* 3. Aggregation in the dynamic BMMs, over TCP's expensive syscalls. *)
  let tcp_multi_field aggregation =
    tcp_one_way
      ~config:{ Madeleine.Config.default with aggregation }
      (List.init 8 (fun i -> H.payload 64 (Int64.of_int i)))
  in
  Printf.printf "A3. BMM aggregation over TCP (8-field message, one-way):\n";
  (match
     Parsim.run pool
       [
         ("A3/grouped", fun () -> tcp_multi_field true);
         ("A3/eager", fun () -> tcp_multi_field false);
       ]
   with
  | [ grouped; eager ] ->
      Printf.printf "      grouped (writev): %7.1f us\n%!" grouped;
      Printf.printf "      eager per-field:  %7.1f us\n%!" eager
  | _ -> assert false);

  (* 4. Gateway software overhead. *)
  Printf.printf "A4. Gateway per-packet overhead (SCI->Myrinet, 8 kB packets):\n";
  let overheads = [ 0.; 25.; 50.; 100.; 200. ] in
  Parsim.run pool
    (List.map
       (fun us ->
         ( Printf.sprintf "A4/%.0fus" us,
           fun () ->
             H.forwarding_bandwidth ~gateway_overhead:(Time.us us) ~mtu:8192
               ~src:0 ~dst:2 ~bytes_count:(1 lsl 19) () ))
       overheads)
  |> List.iter2
       (fun us v -> Printf.printf "      %5.0f us/step: %6.1f MB/s\n%!" us v)
       overheads;

  (* 5. The zero-copy gateway receive (static-buffer borrowing, 6.1). *)
  Printf.printf "A5. Gateway buffer borrowing (32 kB packets):\n";
  (match
     Parsim.run pool
       [
         ( "A5/borrow",
           fun () ->
             H.forwarding_bandwidth ~mtu:32768 ~src:0 ~dst:2
               ~bytes_count:(1 lsl 19) () );
         ( "A5/copy",
           fun () ->
             H.forwarding_bandwidth ~extra_gateway_copy:true ~mtu:32768 ~src:0
               ~dst:2 ~bytes_count:(1 lsl 19) () );
       ]
   with
  | [ zc; copy ] ->
      Printf.printf "      borrow outgoing static buffer: %6.1f MB/s\n" zc;
      Printf.printf "      naive temporary + extra copy:  %6.1f MB/s\n%!" copy
  | _ -> assert false);

  (* 6. Express flushing: the latency cost of receive_EXPRESS on a
     network where it is not free. *)
  let express_cost r_mode =
    tcp_one_way ~r_mode (List.init 4 (fun _ -> Bytes.create 32))
  in
  Printf.printf
    "A6. receive mode on TCP (4 small fields; EXPRESS forces per-field\n\
    \     flushes where CHEAPER lets them group):\n";
  (match
     Parsim.run pool
       [
         ( "A6/cheaper",
           fun () -> express_cost Madeleine.Iface.Receive_cheaper );
         ( "A6/express",
           fun () -> express_cost Madeleine.Iface.Receive_express );
       ]
   with
  | [ cheaper; express ] ->
      Printf.printf "      all CHEAPER: %7.1f us\n%!" cheaper;
      Printf.printf "      all EXPRESS: %7.1f us\n%!" express
  | _ -> assert false);

  (* 7. Gateway bandwidth control: the paper's future work ("some
     sophisticated bandwidth control mechanism is needed to regulate the
     incoming communication flow on gateways"), implemented. Pacing the
     Myrinet ingress keeps its DMA from starving the outgoing SCI PIO. *)
  Printf.printf
    "A7. Gateway ingress regulation, Myrinet->SCI at 32 kB packets (the\n\
    \     paper's proposed future work, implemented):\n";
  let caps = [ None; Some 60.; Some 45.; Some 40. ] in
  Parsim.run pool
    (List.map
       (fun cap ->
         ( (match cap with
           | None -> "A7/unlimited"
           | Some c -> Printf.sprintf "A7/%.0f" c),
           fun () ->
             match cap with
             | None ->
                 H.forwarding_bandwidth ~mtu:32768 ~src:2 ~dst:0
                   ~bytes_count:(1 lsl 20) ()
             | Some c ->
                 H.forwarding_bandwidth ~ingress_cap_mb_s:c ~mtu:32768 ~src:2
                   ~dst:0 ~bytes_count:(1 lsl 20) () ))
       caps)
  |> List.iter2
       (fun cap v ->
         Printf.printf "      ingress %-9s %6.1f MB/s\n%!"
           (match cap with
           | None -> "unlimited:"
           | Some c -> Printf.sprintf "%.0f MB/s:" c)
           v)
       caps;

  (* 8. Adaptive polling/interrupts: the other future-work item of §7,
     implemented. Hot ping-pongs should keep polling latency; the win of
     interrupts is the bounded CPU burn while waiting. *)
  let rx_run rx_interaction ~gap_us =
    let config = { Madeleine.Config.default with rx_interaction } in
    let w = H.sisci_world ~config () in
    let module Mad = Madeleine.Api in
    let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
    let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
    let iters = 20 in
    let lat = ref 0 in
    Marcel.Engine.spawn w.H.engine ~name:"s" (fun () ->
        for _ = 1 to iters do
          (* The receiver is already waiting when the message leaves:
             idle gaps between messages are where polling burns CPU. *)
          Marcel.Engine.sleep (Time.us gap_us);
          let t0 = Marcel.Engine.now w.H.engine in
          let oc = Mad.begin_packing ep0 ~remote:1 in
          Mad.pack oc ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_packing oc;
          let ic = Mad.begin_unpacking_from ep0 ~remote:1 in
          Mad.unpack ic ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_unpacking ic;
          lat :=
            !lat + Time.diff (Marcel.Engine.now w.H.engine) t0
        done);
    Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
        for _ = 1 to iters do
          let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
          Mad.unpack ic ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_unpacking ic;
          let oc = Mad.begin_packing ep1 ~remote:0 in
          Mad.pack oc ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_packing oc
        done);
    Marcel.Engine.run w.H.engine;
    Time.to_us (!lat / (2 * iters))
  in
  Printf.printf
    "A8. Receive interaction (4 B round trips with 1 ms think time;\n\
    \     one-way latency -- interrupts trade latency for bounded CPU burn):\n";
  (match
     Parsim.run pool
       [
         ("A8/poll", fun () -> rx_run Madeleine.Config.Rx_poll ~gap_us:1000.0);
         ( "A8/interrupt",
           fun () -> rx_run Madeleine.Config.Rx_interrupt ~gap_us:1000.0 );
         ( "A8/adaptive",
           fun () ->
             rx_run
               (Madeleine.Config.Rx_adaptive
                  Madeleine.Config.default_adaptive_window)
               ~gap_us:1000.0 );
       ]
   with
  | [ poll; intr; adaptive ] ->
      Printf.printf "      polling:           %6.2f us\n%!" poll;
      Printf.printf "      interrupts:        %6.2f us\n%!" intr;
      Printf.printf "      adaptive (30 us):  %6.2f us\n%!" adaptive
  | _ -> assert false);

  (* 9. Multiple adapters per node (§2.1): striping one transfer across
     two Myrinet rails. The node's single 33 MHz PCI bus, not the wire,
     is the ceiling — so on this hardware a second rail does not pay. *)
  let dual_rail_bw rails =
    let module Mad = Madeleine.Api in
    let module Channel = Madeleine.Channel in
    let engine = Marcel.Engine.create () in
    let fabrics =
      List.init rails (fun i ->
          Simnet.Fabric.create engine
            ~name:(Printf.sprintf "myri-%d" i)
            ~link:Simnet.Netparams.myrinet)
    in
    let n0 = Simnet.Node.create engine ~name:"n0" ~id:0 in
    let n1 = Simnet.Node.create engine ~name:"n1" ~id:1 in
    List.iter
      (fun f ->
        Simnet.Fabric.attach f n0;
        Simnet.Fabric.attach f n1)
      fabrics;
    let session = Madeleine.Session.create engine in
    let channels =
      List.map
        (fun f ->
          let net = Bip.make_net engine f in
          let e0 = Bip.attach net n0 and e1 = Bip.attach net n1 in
          Channel.create session
            (Madeleine.Pmm_bip.driver (function 0 -> e0 | _ -> e1))
            ~ranks:[ 0; 1 ] ())
        fabrics
    in
    let per_rail = 1 lsl 20 / rails in
    List.iter
      (fun chan ->
        Marcel.Engine.spawn engine ~name:"s" (fun () ->
            let oc = Mad.begin_packing (Channel.endpoint chan ~rank:0) ~remote:1 in
            Mad.pack oc (Bytes.create per_rail);
            Mad.end_packing oc);
        Marcel.Engine.spawn engine ~name:"r" (fun () ->
            let ic =
              Mad.begin_unpacking_from (Channel.endpoint chan ~rank:1) ~remote:0
            in
            Mad.unpack ic (Bytes.create per_rail);
            Mad.end_unpacking ic))
      channels;
    Marcel.Engine.run engine;
    Time.rate_mb_s ~bytes_count:(1 lsl 20) (Marcel.Engine.now engine)
  in
  Printf.printf
    "A9. Multi-adapter striping over Myrinet rails (1 MB transfer):\n";
  let rails = [ 1; 2; 3 ] in
  Parsim.run pool
    (List.map
       (fun r -> (Printf.sprintf "A9/rails-%d" r, fun () -> dual_rail_bw r))
       rails)
  |> List.iter2
       (fun r v -> Printf.printf "      %d rail(s): %6.1f MB/s\n%!" r v)
       rails;

  (* 10. Incast: several senders converge on one SCI receiver. The
     receiver's PCI bus (NIC-write class) is the shared bottleneck. *)
  let incast senders =
    let module Mad = Madeleine.Api in
    let w = H.make_world ~n:(senders + 1) H.sisci_driver Simnet.Netparams.sci in
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
  in
  Printf.printf
    "A10. Incast over SCI (concurrent senders to one receiver, aggregate):\n";
  let senders = [ 1; 2; 4 ] in
  Parsim.run pool
    (List.map
       (fun s -> (Printf.sprintf "A10/senders-%d" s, fun () -> incast s))
       senders)
  |> List.iter2
       (fun s v -> Printf.printf "      %d sender(s): %6.1f MB/s\n%!" s v)
       senders
