(* The figure sweeps of bench/main.exe, restructured so that every
   measured point is a (label, thunk) job returning a structured row.
   Thunks build their whole world inside the job (the world-isolation
   invariant, docs/MODEL.md), so a Parsim pool may execute them on any
   worker domain; rendering happens only after ordered collection, which
   is what makes parallel output byte-identical to serial output. *)

module Time = Marcel.Time
module H = Harness

let sizes_small =
  [ 4; 16; 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ]

let iters n = if n <= 1024 then 20 else if n <= 65536 then 8 else 3

let line = String.make 72 '-'
let section title body = Printf.sprintf "\n%s\n%s\n%s\n%s" line title line body

let lat_us span = Time.to_us span
let bw n span = Time.rate_mb_s ~bytes_count:n span

(* ------------------------------------------------------------------ *)

let fig4 pool =
  let rows =
    Parsim.run pool
      (List.map
         (fun n ->
           ( Printf.sprintf "fig4/%d" n,
             fun () ->
               let t =
                 H.mad_pingpong (H.sisci_world ()) ~bytes_count:n
                   ~iters:(iters n)
               in
               Printf.sprintf "%-10d %12.2f %12.2f\n" n (lat_us t) (bw n t) ))
         sizes_small)
  in
  section
    "Fig. 4 -- Madeleine II over SISCI/SCI (paper: 3.9 us min latency,\n\
     82 MB/s peak, dual-buffering kink above 8 kB)"
    (Printf.sprintf "%-10s %12s %12s\n" "size(B)" "latency(us)" "bw(MB/s)"
    ^ String.concat "" rows)

let fig5 pool =
  let rows =
    Parsim.run pool
      (List.map
         (fun n ->
           ( Printf.sprintf "fig5/%d" n,
             fun () ->
               let m =
                 H.mad_pingpong (H.bip_world ()) ~bytes_count:n ~iters:(iters n)
               in
               let w = H.raw_bip_pingpong ~bytes_count:n ~iters:(iters n) in
               Printf.sprintf "%-10d %12.2f %12.2f %12.2f %12.2f\n" n
                 (lat_us m) (bw n m) (lat_us w) (bw n w) ))
         sizes_small)
  in
  section
    "Fig. 5 -- Madeleine II over BIP/Myrinet vs raw BIP (paper: 7 vs 5 us,\n\
     122 vs 126 MB/s)"
    (Printf.sprintf "%-10s %12s %12s %12s %12s\n" "size(B)" "mad lat(us)"
       "mad bw" "raw lat(us)" "raw bw"
    ^ String.concat "" rows)

let fig6 pool =
  let rows =
    Parsim.run pool
      (List.map
         (fun n ->
           ( Printf.sprintf "fig6/%d" n,
             fun () ->
               let raw =
                 H.mad_pingpong (H.sisci_world ()) ~bytes_count:n
                   ~iters:(iters n)
               in
               let chmad = H.mpi_pingpong H.Chmad ~bytes_count:n ~iters:(iters n) in
               let scim =
                 H.mpi_pingpong
                   (H.Scidirect Mpilite.Dev_scidirect.sci_mpich)
                   ~bytes_count:n ~iters:(iters n)
               in
               let scam =
                 H.mpi_pingpong
                   (H.Scidirect Mpilite.Dev_scidirect.scampi)
                   ~bytes_count:n ~iters:(iters n)
               in
               (n, raw, chmad, scim, scam) ))
         sizes_small)
  in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "%-10s | %10s %10s %10s %10s  (latency us)\n" "size(B)"
       "mad-raw" "chmad" "sci-mpich" "scampi");
  List.iter
    (fun (n, raw, chmad, scim, scam) ->
      Buffer.add_string b
        (Printf.sprintf "%-10d | %10.2f %10.2f %10.2f %10.2f\n" n (lat_us raw)
           (lat_us chmad) (lat_us scim) (lat_us scam)))
    rows;
  Buffer.add_string b
    (Printf.sprintf "\n%-10s | %10s %10s %10s %10s  (bandwidth MB/s)\n"
       "size(B)" "mad-raw" "chmad" "sci-mpich" "scampi");
  List.iter
    (fun (n, raw, chmad, scim, scam) ->
      Buffer.add_string b
        (Printf.sprintf "%-10d | %10.2f %10.2f %10.2f %10.2f\n" n (bw n raw)
           (bw n chmad) (bw n scim) (bw n scam)))
    rows;
  section
    "Fig. 6 -- MPI implementations over SCI (paper: MPICH/Mad-II has the\n\
     worst latency but the best bandwidth from 32 kB up)"
    (Buffer.contents b)

let fig7 pool =
  let rows =
    Parsim.run pool
      (List.map
         (fun n ->
           ( Printf.sprintf "fig7/%d" n,
             fun () ->
               let s =
                 H.nexus_roundtrip H.Nexus_mad_sisci ~bytes_count:n
                   ~iters:(iters n)
               in
               let t =
                 H.nexus_roundtrip H.Nexus_mad_tcp ~bytes_count:n
                   ~iters:(iters n)
               in
               Printf.sprintf "%-10d %13.2f %13.2f %13.2f %13.2f\n" n
                 (lat_us s) (bw n s) (lat_us t) (bw n t) ))
         [ 4; 64; 1024; 4096; 16384; 65536; 262144 ])
  in
  section
    "Fig. 7 -- Nexus/Madeleine II over SISCI and TCP (paper: <25 us min\n\
     latency on SCI; SCI the more interesting cluster solution)"
    (Printf.sprintf "%-10s %13s %13s %13s %13s\n" "size(B)" "sci lat(us)"
       "sci bw" "tcp lat(us)" "tcp bw"
    ^ String.concat "" rows)

let eq16k pool =
  let n = 16384 in
  let rows =
    Parsim.run pool
      [
        ( "eq16k/sisci",
          fun () ->
            let s = H.mad_pingpong (H.sisci_world ()) ~bytes_count:n ~iters:10 in
            Printf.sprintf "  Madeleine/SISCI @16kB: %7.1f us  %6.1f MB/s\n"
              (lat_us s) (bw n s) );
        ( "eq16k/bip",
          fun () ->
            let b = H.mad_pingpong (H.bip_world ()) ~bytes_count:n ~iters:10 in
            Printf.sprintf "  Madeleine/BIP   @16kB: %7.1f us  %6.1f MB/s\n"
              (lat_us b) (bw n b) );
      ]
  in
  section
    "Sec. 6.2.1 -- the 16 kB equal-cost point (paper: both networks near\n\
     250 us / 60 MB/s at 16 kB, suggesting the gateway packet size)"
    (String.concat "" rows)

let mtu_sweep = [ 8192; 16384; 32768; 65536; 131072 ]

let forwarding_fig ~title ~src ~dst pool =
  let rows =
    Parsim.run pool
      (List.map
         (fun mtu ->
           ( Printf.sprintf "fwd/%d-%d/%d" src dst mtu,
             fun () ->
               let v, util =
                 H.forwarding_run ~mtu ~src ~dst ~bytes_count:(1 lsl 20) ()
               in
               Printf.sprintf "%-10d %12.2f %13.0f%%\n" mtu v (100.0 *. util) ))
         mtu_sweep)
  in
  section title
    (Printf.sprintf "%-10s %12s %14s\n" "mtu(B)" "bw(MB/s)" "gw-pci-util"
    ^ String.concat "" rows)

let fig10 pool =
  forwarding_fig
    ~title:
      "Fig. 10 -- forwarding bandwidth SCI -> Myrinet (paper: 36.5 MB/s at\n\
       8 kB packets, rising to ~49.5 at 128 kB; PCI full-duplex limit)"
    ~src:0 ~dst:2 pool

let fig11 pool =
  forwarding_fig
    ~title:
      "Fig. 11 -- forwarding bandwidth Myrinet -> SCI (paper: 29 MB/s at\n\
       8 kB, staying under ~36.5: Myrinet DMA starves the gateway's PIO)"
    ~src:2 ~dst:0 pool
