(* madbench: a command-line front end to the simulated testbeds.

     madbench pingpong --net sisci --size 8192 --iters 10
     madbench sweep --net bip --jobs 4
     madbench forward --direction sci-to-myri --mtu 16384
     madbench mpi --device chmad --size 65536
     madbench nexus --proto sci --size 1024
     madbench chaos --quick --seed 42 --jobs 4 --json chaos.json
     madbench figures fig4 fig10 report --jobs 4
     madbench simspeed --baseline BENCH_simspeed.json
     madbench describe --config examples/clusters/two_cluster.cfg
     madbench config-pingpong --config cluster.cfg --channel wan \
         --from a --to b --size 4096

   All numbers are simulated time on the paper's calibrated testbed
   (dual PII-450, 33 MHz PCI, BIP/Myrinet + SISCI/SCI + Fast Ethernet). *)

module Time = Marcel.Time
module H = Harness
open Cmdliner

let report ~what ~bytes_count span =
  Format.printf "%s: size=%d B  one-way=%.2f us  bandwidth=%.2f MB/s@." what
    bytes_count (Time.to_us span)
    (Time.rate_mb_s ~bytes_count span)

(* -------- pingpong -------- *)

type net = Sisci_net | Bip_net | Tcp_net | Via_net | Sbp_net

let net_conv =
  Arg.enum
    [
      ("sisci", Sisci_net); ("bip", Bip_net); ("tcp", Tcp_net);
      ("via", Via_net); ("sbp", Sbp_net);
    ]

let net_arg =
  Arg.(value & opt net_conv Sisci_net & info [ "net" ] ~docv:"NET"
         ~doc:"Network interface: sisci, bip, tcp, via or sbp.")

let size_arg =
  Arg.(value & opt int 4 & info [ "size" ] ~docv:"BYTES"
         ~doc:"Message payload size in bytes.")

let iters_arg =
  Arg.(value & opt int 10 & info [ "iters" ] ~docv:"N"
         ~doc:"Ping-pong iterations to average over.")

let net_name = function
  | Sisci_net -> "madeleine/sisci"
  | Bip_net -> "madeleine/bip"
  | Tcp_net -> "madeleine/tcp"
  | Via_net -> "madeleine/via"
  | Sbp_net -> "madeleine/sbp"

(* A constructor, not a world: sweep jobs must build their world inside
   the job so each measurement is isolated on its worker domain. *)
let make_world = function
  | Sisci_net -> H.sisci_world ()
  | Bip_net -> H.bip_world ()
  | Tcp_net -> H.tcp_world ()
  | Via_net -> H.via_world ()
  | Sbp_net -> H.sbp_world ()

let pingpong net size iters =
  report ~what:(net_name net) ~bytes_count:size
    (H.mad_pingpong (make_world net) ~bytes_count:size ~iters)

let pingpong_cmd =
  Cmd.v
    (Cmd.info "pingpong" ~doc:"One Madeleine ping-pong measurement.")
    Term.(const pingpong $ net_arg $ size_arg $ iters_arg)

(* -------- sweep -------- *)

let jobs_arg =
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "jobs" ] ~docv:"N"
           ~absent:"the machine's recommended domain count"
           ~doc:"Worker domains to fan independent jobs over (1 = serial). \
                 Simulated results are byte-identical for any N.")

let sweep net jobs =
  Format.printf "# %s latency/bandwidth sweep@." (net_name net);
  Format.printf "%-10s %12s %12s@." "size(B)" "latency(us)" "bw(MB/s)";
  let rows =
    Parsim.with_pool ~jobs (fun pool ->
        Parsim.run pool
          (List.map
             (fun n ->
               ( Printf.sprintf "sweep/%d" n,
                 fun () ->
                   let iters = if n <= 4096 then 10 else 3 in
                   let t = H.mad_pingpong (make_world net) ~bytes_count:n ~iters in
                   Printf.sprintf "%-10d %12.2f %12.2f" n (Time.to_us t)
                     (Time.rate_mb_s ~bytes_count:n t) ))
             [ 4; 64; 1024; 4096; 16384; 65536; 262144; 1048576 ]))
  in
  List.iter (Format.printf "%s@.") rows

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"Full message-size sweep on one interface.")
    Term.(const sweep $ net_arg $ jobs_arg)

(* -------- forward -------- *)

type direction = Sci_to_myri | Myri_to_sci

let dir_conv =
  Arg.enum [ ("sci-to-myri", Sci_to_myri); ("myri-to-sci", Myri_to_sci) ]

let dir_arg =
  Arg.(value & opt dir_conv Sci_to_myri & info [ "direction" ] ~docv:"DIR"
         ~doc:"Forwarding direction: sci-to-myri or myri-to-sci.")

let mtu_arg =
  Arg.(value & opt int 16384 & info [ "mtu" ] ~docv:"BYTES"
         ~doc:"Generic-TM packet size used along the route.")

let ovh_arg =
  Arg.(value & opt float 50.0 & info [ "gateway-overhead" ] ~docv:"US"
         ~doc:"Per-packet gateway software overhead in microseconds.")

let cap_arg =
  Arg.(value & opt (some float) None & info [ "ingress-cap" ] ~docv:"MB/S"
         ~doc:"Gateway ingress bandwidth regulation (the paper's \
               future-work mechanism); unset = unregulated.")

let forward direction mtu ovh cap =
  let src, dst, label =
    match direction with
    | Sci_to_myri -> (0, 2, "SCI->Myrinet")
    | Myri_to_sci -> (2, 0, "Myrinet->SCI")
  in
  let v =
    H.forwarding_bandwidth ~gateway_overhead:(Time.us ovh)
      ?ingress_cap_mb_s:cap ~mtu ~src ~dst ~bytes_count:(1 lsl 20) ()
  in
  Format.printf "%s  mtu=%d B  gateway-overhead=%.0f us%s: %.2f MB/s@." label
    mtu ovh
    (match cap with
    | None -> ""
    | Some c -> Printf.sprintf "  ingress-cap=%.0f MB/s" c)
    v

let forward_cmd =
  Cmd.v
    (Cmd.info "forward"
       ~doc:"Inter-cluster forwarding bandwidth through the gateway.")
    Term.(const forward $ dir_arg $ mtu_arg $ ovh_arg $ cap_arg)

(* -------- mpi -------- *)

type mpi_dev = Dev_chmad | Dev_scimpich | Dev_scampi

let dev_conv =
  Arg.enum
    [ ("chmad", Dev_chmad); ("sci-mpich", Dev_scimpich); ("scampi", Dev_scampi) ]

let dev_arg =
  Arg.(value & opt dev_conv Dev_chmad & info [ "device" ] ~docv:"DEV"
         ~doc:"MPI device: chmad, sci-mpich or scampi.")

let mpi dev size iters =
  let kind, name =
    match dev with
    | Dev_chmad -> (H.Chmad, "mpich/madeleine")
    | Dev_scimpich -> (H.Scidirect Mpilite.Dev_scidirect.sci_mpich, "sci-mpich")
    | Dev_scampi -> (H.Scidirect Mpilite.Dev_scidirect.scampi, "scampi")
  in
  report ~what:name ~bytes_count:size
    (H.mpi_pingpong kind ~bytes_count:size ~iters)

let mpi_cmd =
  Cmd.v
    (Cmd.info "mpi" ~doc:"MPI ping-pong on one of the three devices.")
    Term.(const mpi $ dev_arg $ size_arg $ iters_arg)

(* -------- nexus -------- *)

type nx_proto = Nx_sci | Nx_tcp

let proto_conv = Arg.enum [ ("sci", Nx_sci); ("tcp", Nx_tcp) ]

let proto_arg =
  Arg.(value & opt proto_conv Nx_sci & info [ "proto" ] ~docv:"PROTO"
         ~doc:"Nexus transport: sci (Madeleine/SISCI) or tcp (Madeleine/TCP).")

let nexus proto size iters =
  let kind, name =
    match proto with
    | Nx_sci -> (H.Nexus_mad_sisci, "nexus/madeleine/sci")
    | Nx_tcp -> (H.Nexus_mad_tcp, "nexus/madeleine/tcp")
  in
  report ~what:name ~bytes_count:size
    (H.nexus_roundtrip kind ~bytes_count:size ~iters)

let nexus_cmd =
  Cmd.v
    (Cmd.info "nexus" ~doc:"Nexus RSR echo measurement.")
    Term.(const nexus $ proto_arg $ size_arg $ iters_arg)

(* -------- crossover -------- *)

(* Bisect, per fabric, the message size where the zero-copy rendezvous
   path breaks even with the staged eager path, and persist the result
   (plus bandwidth points and the pin-cache hit rate of a
   repeated-buffer sweep) in BENCH_crossover.json. Clusterfiles consume
   the measurement through the channel key rendezvous=auto. *)

let crossover_sizes = [ 32768; 65536; 131072; 262144; 1048576 ]

let rdv_config ~threshold =
  {
    Madeleine.Config.default with
    Madeleine.Config.rendezvous_threshold = Some threshold;
    regcache_entries = 8;
  }

type crossover_result = {
  co_fabric : string;
  co_bytes : int;
  co_points : (int * float * float * float) list;
      (* size, staged MB/s, warm-cache rdv MB/s, cache-off rdv MB/s *)
  co_hit_rate : float;
}

let crossover_fabric (name, make) =
  let staged_time s = H.mad_pingpong (make None) ~bytes_count:s ~iters:8 in
  let rdv_time s =
    H.mad_pingpong (make (Some (rdv_config ~threshold:s))) ~bytes_count:s
      ~iters:8
  in
  let rdv_wins s = Time.to_us (rdv_time s) <= Time.to_us (staged_time s) in
  (* The handshake + pin cost dominates small messages and amortizes on
     large ones, so the win predicate is monotone enough to bisect. *)
  let lo = ref 1024 and hi = ref (1 lsl 20) in
  if rdv_wins !lo then hi := !lo
  else
    while !hi - !lo > 1024 do
      let mid = (!lo + !hi) / 2 in
      if rdv_wins mid then hi := mid else lo := mid
    done;
  let co_bytes = !hi in
  let cold_time s =
    let config =
      { (rdv_config ~threshold:s) with Madeleine.Config.regcache_entries = 0 }
    in
    H.mad_pingpong (make (Some config)) ~bytes_count:s ~iters:8
  in
  let co_points =
    List.map
      (fun s ->
        ( s,
          Time.rate_mb_s ~bytes_count:s (staged_time s),
          Time.rate_mb_s ~bytes_count:s (rdv_time s),
          Time.rate_mb_s ~bytes_count:s (cold_time s) ))
      crossover_sizes
  in
  (* Repeated-buffer sweep: ping-pong reuses one buffer per side, so a
     warm cache should serve nearly every send from the first pin. *)
  let w = make (Some (rdv_config ~threshold:32768)) in
  ignore (H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:16);
  let co_hit_rate =
    match
      Madeleine.Channel.reg_stats
        (Madeleine.Channel.endpoint w.H.channel ~rank:0)
    with
    | Some s ->
        float_of_int s.Madeleine.Regcache.hits
        /. float_of_int
             (max 1 (s.Madeleine.Regcache.hits + s.Madeleine.Regcache.misses))
    | None -> 0.0
  in
  { co_fabric = name; co_bytes; co_points; co_hit_rate }

let crossover_write_json file results =
  let record r =
    Json.Obj
      [
        ("fabric", Json.Str r.co_fabric);
        ("crossover_bytes", Json.Int r.co_bytes);
        ("regcache_hit_rate", Json.Float (r.co_hit_rate, 3));
        ( "points",
          Json.List
            (List.map
               (fun (s, staged, rdv, cold) ->
                 Json.Obj
                   [
                     ("bytes", Json.Int s);
                     ("staged_mb_s", Json.Float (staged, 2));
                     ("rdv_mb_s", Json.Float (rdv, 2));
                     ("rdv_cold_mb_s", Json.Float (cold, 2));
                     ("gain", Json.Float (rdv /. Float.max 1e-9 staged, 3));
                   ])
               r.co_points) );
      ]
  in
  let oc = open_out file in
  Printf.fprintf oc "{ \"crossover\": %s }\n"
    (Json.to_string (Json.List (List.map record results)));
  close_out oc

let crossover out =
  let fabrics =
    [
      ("sisci", fun config -> H.sisci_world ?config ());
      ("via", fun config -> H.via_world ?config ());
    ]
  in
  let results = List.map crossover_fabric fabrics in
  let failed = ref false in
  List.iter
    (fun r ->
      Format.printf "%s: eager/rendezvous crossover at %d B  (pin-cache hit \
                     rate %.1f%%)@."
        r.co_fabric r.co_bytes (100. *. r.co_hit_rate);
      List.iter
        (fun (s, staged, rdv, cold) ->
          Format.printf "  %8d B  staged %7.2f MB/s  zero-copy %7.2f MB/s  \
                         (%.2fx)  cache-off %7.2f MB/s@."
            s staged rdv
            (rdv /. Float.max 1e-9 staged)
            cold)
        r.co_points;
      (* CI keys off the exit code: the sisci zero-copy path must buy
         >= 1.2x from 32 kB up and the warm cache must serve > 90%. *)
      if r.co_fabric = "sisci" then begin
        List.iter
          (fun (s, staged, rdv, _cold) ->
            if s >= 32768 && rdv /. Float.max 1e-9 staged < 1.2 then begin
              Format.eprintf
                "crossover: gate FAILED: sisci %d B gain %.2fx < 1.2x@." s
                (rdv /. Float.max 1e-9 staged);
              failed := true
            end)
          r.co_points;
        if r.co_hit_rate <= 0.9 then begin
          Format.eprintf
            "crossover: gate FAILED: sisci pin-cache hit rate %.1f%% <= 90%%@."
            (100. *. r.co_hit_rate);
          failed := true
        end
      end)
    results;
  crossover_write_json out results;
  Format.printf "wrote %s@." out;
  if !failed then exit 1

let out_arg =
  Arg.(value & opt string "BENCH_crossover.json" & info [ "out" ] ~docv:"FILE"
         ~doc:"File the per-fabric crossover measurements are written to \
               (the clusterfile key $(b,rendezvous=auto) reads this name).")

let crossover_cmd =
  Cmd.v
    (Cmd.info "crossover"
       ~doc:"Bisect the eager/rendezvous break-even per fabric and persist \
             it for rendezvous=auto.")
    Term.(const crossover $ out_arg)

(* -------- chaos -------- *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ]
         ~doc:"Trim the fault sweep to the CI-sized subset.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Fault-plane RNG seed. Reports for one seed are \
               byte-identical across runs and worker counts.")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Also write the machine-readable report to FILE.")

(* One registry workload alone (the CI smoke path) judges only its own
   gates; without one, the full sweep runs over the --jobs pool. *)
let chaos workload quick seed jobs json_file =
  let text, json, gates =
    match workload with
    | Some name -> (
        match Chaos.find name with
        | Some w ->
            let r = w.Chaos.run ~seed ~quick in
            (r.Chaos.line, Chaos.workload_json ~seed name r, r.Chaos.gates)
        | None ->
            Format.eprintf "chaos: unknown workload %s (expected one of: %s)@."
              name
              (String.concat ", "
                 (List.map (fun w -> w.Chaos.name) Chaos.workloads));
            exit 2)
    | None ->
        let results =
          Parsim.with_pool ~jobs (fun pool -> Chaos.run pool ~seed ~quick)
        in
        ( Chaos.render_table ~seed ~quick results,
          Chaos.to_json ~seed ~quick results,
          Chaos.gates results )
  in
  print_string text;
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      Format.printf "wrote %s@." file);
  (* Exit non-zero naming every tripped gate. *)
  match List.filter_map (fun (n, ok) -> if ok then None else Some n) gates with
  | [] -> ()
  | failed ->
      List.iter (fun name -> Format.eprintf "chaos: gate FAILED: %s@." name)
        failed;
      exit 1

let workload_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
         ~doc:
           ("Run a single workload instead of the full sweep: "
           ^ String.concat ", "
               (List.map
                  (fun w ->
                    Printf.sprintf "$(b,%s) (%s)" w.Chaos.name w.Chaos.doc)
                  Chaos.workloads)
           ^ ". Only that workload's gates decide the exit code."))

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injection sweep: reliable delivery under drops, \
             corruption, flaps, PCI stalls, gateway crashes, overload and \
             live topology changes, plus standalone partition and \
             collectives workloads.")
    Term.(
      const chaos $ workload_arg $ quick_arg $ seed_arg $ jobs_arg $ json_arg)

(* -------- figures -------- *)

(* The paper's evaluation (§5-§6) section by section, then the
   ablations and the judged replication report; every number is
   simulated, so the output is byte-identical for any --jobs. *)
let figure_sections =
  let fig f pool = print_string (f pool) in
  [
    ("fig4", fig Sweeps.fig4);
    ("fig5", fig Sweeps.fig5);
    ("fig6", fig Sweeps.fig6);
    ("fig7", fig Sweeps.fig7);
    ("eq16k", fig Sweeps.eq16k);
    ("fig10", fig Sweeps.fig10);
    ("fig11", fig Sweeps.fig11);
    ("ablations", Ablations.run);
    ( "report",
      fun _pool ->
        print_string
          (Sweeps.section "Replication report -- paper vs measured, judged" "");
        ignore (Report.run ()) );
  ]

let figures sections jobs =
  let sections =
    if sections = [] then List.map snd figure_sections else sections
  in
  Parsim.with_pool ~jobs (fun pool -> List.iter (fun f -> f pool) sections);
  print_string "\nbench: all requested sections completed.\n"

let sections_arg =
  Arg.(value & pos_all (enum figure_sections) [] & info [] ~docv:"SECTION"
         ~doc:("Sections to run, in order (default: all): "
              ^ String.concat " " (List.map fst figure_sections) ^ "."))

let figures_cmd =
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Regenerate the paper's figures, the ablations and the \
             replication report.")
    Term.(const figures $ sections_arg $ jobs_arg)

(* -------- simspeed -------- *)

let simspeed json baseline =
  if not (Simspeed.run ~json ~baseline) then exit 1

let write_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Also write the results to BENCH_simspeed.json.")

let baseline_arg =
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
         ~doc:"Gate the run against the baseline FILE, read before \
               $(b,--json) writes; exit 1 if a gate fails.")

let simspeed_cmd =
  Cmd.v
    (Cmd.info "simspeed"
       ~doc:"Simulator throughput (host events per second) per scenario, \
             optionally gated against a baseline.")
    Term.(const simspeed $ write_json_arg $ baseline_arg)

(* -------- describe / config-driven runs -------- *)

let config_arg =
  Arg.(required & opt (some file) None & info [ "config" ] ~docv:"FILE"
         ~doc:"Cluster description file (see docs and \
               examples/clusters/two_cluster.cfg).")

let describe config =
  let module Cf = Clusterfile in
  let t = Cf.load_file config in
  Format.printf "networks: %s@." (String.concat ", " (Cf.networks t));
  Format.printf "nodes:   ";
  List.iter
    (fun n -> Format.printf " %s(rank %d)" n (Cf.rank_of t n))
    (Cf.nodes t);
  Format.printf "@.channels: %s@." (String.concat ", " (Cf.channels t));
  List.iter
    (fun vc_name ->
      let vc = Cf.vchannel t vc_name in
      Format.printf "vchannel %s spans ranks %s@." vc_name
        (String.concat ", "
           (List.map string_of_int (Madeleine.Vchannel.ranks vc)));
      let nodes = Cf.nodes t in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if a <> b then
                match
                  Madeleine.Vchannel.route_length vc ~src:(Cf.rank_of t a)
                    ~dst:(Cf.rank_of t b)
                with
                | hops -> Format.printf "  %s -> %s: %d hop(s)@." a b hops
                | exception Madeleine.Vchannel.Partitioned _ ->
                    Format.printf "  %s -> %s: unreachable@." a b)
            nodes)
        nodes)
    (Cf.vchannels t)

let describe_cmd =
  Cmd.v
    (Cmd.info "describe" ~doc:"Print the inventory and routes of a cluster file.")
    Term.(const describe $ config_arg)

let config_pingpong config chan_name from_name to_name size iters =
  let module Cf = Clusterfile in
  let module Mad = Madeleine.Api in
  let t = Cf.load_file config in
  let src = Cf.rank_of t from_name and dst = Cf.rank_of t to_name in
  let run_pingpong ~send_one ~recv_one =
    let t0 = ref Marcel.Time.zero and t1 = ref Marcel.Time.zero in
    Marcel.Engine.spawn (Cf.engine t) ~name:"ping" (fun () ->
        t0 := Marcel.Engine.now (Cf.engine t);
        for _ = 1 to iters do
          send_one ~me:src ~peer:dst;
          recv_one ~me:src ~peer:dst
        done;
        t1 := Marcel.Engine.now (Cf.engine t));
    Marcel.Engine.spawn (Cf.engine t) ~name:"pong" (fun () ->
        for _ = 1 to iters do
          recv_one ~me:dst ~peer:src;
          send_one ~me:dst ~peer:src
        done);
    Marcel.Engine.run (Cf.engine t);
    Marcel.Time.diff !t1 !t0 / (2 * iters)
  in
  let span =
    match
      (List.mem chan_name (Cf.channels t), List.mem chan_name (Cf.vchannels t))
    with
    | true, _ ->
        let chan = Cf.channel t chan_name in
        run_pingpong
          ~send_one:(fun ~me ~peer ->
            let oc =
              Mad.begin_packing (Madeleine.Channel.endpoint chan ~rank:me)
                ~remote:peer
            in
            Mad.pack oc (Bytes.create size);
            Mad.end_packing oc)
          ~recv_one:(fun ~me ~peer ->
            let ic =
              Mad.begin_unpacking_from
                (Madeleine.Channel.endpoint chan ~rank:me)
                ~remote:peer
            in
            Mad.unpack ic (Bytes.create size);
            Mad.end_unpacking ic)
    | false, true ->
        let vc = Cf.vchannel t chan_name in
        run_pingpong
          ~send_one:(fun ~me ~peer ->
            let oc = Madeleine.Vchannel.begin_packing vc ~me ~remote:peer in
            Madeleine.Vchannel.pack oc (Bytes.create size);
            Madeleine.Vchannel.end_packing oc)
          ~recv_one:(fun ~me ~peer ->
            let ic =
              Madeleine.Vchannel.begin_unpacking_from vc ~me ~remote:peer
            in
            Madeleine.Vchannel.unpack ic (Bytes.create size);
            Madeleine.Vchannel.end_unpacking ic)
    | false, false ->
        Format.eprintf "no channel or vchannel named %S@." chan_name;
        exit 2
  in
  report
    ~what:(Printf.sprintf "%s %s->%s" chan_name from_name to_name)
    ~bytes_count:size span

let chan_arg =
  Arg.(required & opt (some string) None & info [ "channel" ] ~docv:"NAME"
         ~doc:"Channel or vchannel name from the cluster file.")

let from_arg =
  Arg.(required & opt (some string) None & info [ "from" ] ~docv:"NODE"
         ~doc:"Sending node name from the cluster file.")

let to_arg =
  Arg.(required & opt (some string) None & info [ "to" ] ~docv:"NODE"
         ~doc:"Receiving node name from the cluster file.")

let config_pingpong_cmd =
  Cmd.v
    (Cmd.info "config-pingpong"
       ~doc:"Ping-pong over a channel of a cluster-file world.")
    Term.(const config_pingpong $ config_arg $ chan_arg $ from_arg $ to_arg
          $ size_arg $ iters_arg)

(* -------- main -------- *)

let () =
  let info =
    Cmd.info "madbench" ~version:"1.0"
      ~doc:
        "Measurements on the simulated Madeleine II testbed (CLUSTER 2000 \
         reproduction): ping-pongs and sweeps on each interface, gateway \
         forwarding, MPI and Nexus layers, the fault-injection chaos \
         sweep, the paper's figures, simulator throughput, and \
         cluster-file driven worlds (describe, config-pingpong)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            pingpong_cmd; sweep_cmd; forward_cmd; mpi_cmd; nexus_cmd;
            crossover_cmd; chaos_cmd; figures_cmd; simspeed_cmd; describe_cmd;
            config_pingpong_cmd;
          ]))
