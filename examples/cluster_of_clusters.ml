(* Clusters of clusters: the paper's §6 scenario, end to end.

   Two clusters — three SCI nodes and three Myrinet nodes — joined by a
   gateway node equipped with both NICs. A virtual channel spans both
   real channels; nodes address any peer directly and the gateway's
   dual-buffer pipeline forwards packets between networks transparently.
   The program runs an all-pairs exchange and then measures the
   inter-cluster bandwidth in both directions, reproducing the Fig. 10
   vs Fig. 11 asymmetry.

   Run with: dune exec examples/cluster_of_clusters.exe *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Vc = Madeleine.Vchannel

let () =
  (* Ranks 0-2 on SCI, rank 3 the gateway on both, ranks 4-5 on Myrinet. *)
  let cluster =
    Clusterfile.load
      {|
network sci   type=sisci
network myri  type=bip
node sci-a    nets=sci
node sci-b    nets=sci
node sci-c    nets=sci
node gateway  nets=sci,myri
node myri-a   nets=myri
node myri-b   nets=myri
channel  c-sci   net=sci   nodes=sci-a,sci-b,sci-c,gateway
channel  c-myri  net=myri  nodes=gateway,myri-a,myri-b
vchannel wan     channels=c-sci,c-myri  mtu=32768
|}
  in
  let engine = Clusterfile.engine cluster in
  let vc = Clusterfile.vchannel cluster "wan" in

  Format.printf "virtual channel spans ranks %s@."
    (String.concat ", " (List.map string_of_int (Vc.ranks vc)));
  List.iter
    (fun (a, b) ->
      Format.printf "  route %d -> %d: %d hop(s)@." a b
        (Vc.route_length vc ~src:a ~dst:b))
    [ (0, 1); (0, 3); (0, 5); (4, 2) ];

  (* Phase 1: all-pairs token exchange across the whole machine. *)
  let all_ranks = Vc.ranks vc in
  let pending = Marcel.Semaphore.create 0 in
  let expected = ref 0 in
  List.iter
    (fun me ->
      Engine.spawn engine ~name:(Printf.sprintf "app.%d" me) (fun () ->
          List.iter
            (fun peer ->
              if peer <> me then begin
                let oc = Vc.begin_packing vc ~me ~remote:peer in
                let token = Bytes.create 8 in
                Bytes.set_int64_le token 0 (Int64.of_int ((me * 100) + peer));
                Vc.pack oc token;
                Vc.end_packing oc
              end)
            all_ranks);
      Engine.spawn engine ~name:(Printf.sprintf "sink.%d" me) (fun () ->
          for _ = 2 to List.length all_ranks do
            let ic = Vc.begin_unpacking vc ~me in
            let token = Bytes.create 8 in
            Vc.unpack ic token;
            Vc.end_unpacking ic;
            let v = Int64.to_int (Bytes.get_int64_le token 0) in
            assert (v = (Vc.remote_rank ic * 100) + me);
            Marcel.Semaphore.release pending
          done);
      expected := !expected + List.length all_ranks - 1)
    all_ranks;
  Engine.spawn engine ~name:"phase1" (fun () ->
      for _ = 1 to !expected do
        Marcel.Semaphore.acquire pending
      done;
      Format.printf "[%a] all-pairs exchange complete (%d messages)@." Time.pp
        (Engine.now engine) !expected);
  Engine.run engine;

  (* Phase 2: inter-cluster bandwidth, both directions through the
     gateway, on a fresh world per measurement. *)
  let measure ~src ~dst =
    let bytes_count = 1 lsl 20 in
    let t0 = ref Time.zero and t1 = ref Time.zero in
    Engine.spawn engine ~name:"bw.sender" (fun () ->
        t0 := Engine.now engine;
        let oc = Vc.begin_packing vc ~me:src ~remote:dst in
        Vc.pack oc (Bytes.create bytes_count);
        Vc.end_packing oc);
    Engine.spawn engine ~name:"bw.receiver" (fun () ->
        let ic = Vc.begin_unpacking_from vc ~me:dst ~remote:src in
        let sink = Bytes.create bytes_count in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        t1 := Engine.now engine);
    Engine.run engine;
    Time.rate_mb_s ~bytes_count (Time.diff !t1 !t0)
  in
  let fwd = measure ~src:0 ~dst:4 in
  let rev = measure ~src:4 ~dst:0 in
  Format.printf "inter-cluster bandwidth at 32 kB packets:@.";
  Format.printf "  SCI -> Myrinet : %5.1f MB/s@." fwd;
  Format.printf "  Myrinet -> SCI : %5.1f MB/s  (PCI arbitration penalty)@."
    rev;
  List.iter
    (fun (node, packets, bytes) ->
      Format.printf "  gateway rank %d relayed %d packets (%d kB)@." node
        packets (bytes / 1024))
    (Vc.forwarded vc);
  Format.printf "cluster_of_clusters: done at %a of simulated time@." Time.pp
    (Engine.now engine)
