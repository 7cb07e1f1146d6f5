(* Tests for the mini-MPI: matching semantics, collectives, and the
   Fig. 6 device comparison (MPICH/Madeleine vs direct SCI MPIs). *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mpi = Mpilite.Mpi

(* Worlds and the Fig. 6 ping-pong are Harness's, shared with the
   benchmark. *)
module H = Harness

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

let in_range ?(lo = 0.0) ~hi what v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" what v lo hi)
    true
    (v >= lo && v <= hi)

let spawn_rank w name f = Engine.spawn w.H.mpi_engine ~name f
let rank_ctx w r = Mpi.ctx w.H.mpi_world ~rank:r

(* ------------------------------------------------------------------ *)
(* Point-to-point semantics (over ch_mad) *)

let test_send_recv_roundtrip () =
  let w = H.make_mpi_world ~n:2 H.Chmad in
  let data = payload 5000 1L in
  spawn_rank w "r0" (fun () ->
      Mpi.send (rank_ctx w 0) ~dst:1 ~tag:42 data);
  spawn_rank w "r1" (fun () ->
      let buf = Bytes.create 5000 in
      let st = Mpi.recv (rank_ctx w 1) ~src:0 ~tag:42 buf in
      Alcotest.(check int) "len" 5000 st.Mpi.status_len;
      Alcotest.(check int) "src" 0 st.Mpi.status_src;
      Alcotest.(check int) "tag" 42 st.Mpi.status_tag;
      Alcotest.(check bytes) "content" data buf);
  Engine.run w.H.mpi_engine

let test_any_source_any_tag () =
  let w = H.make_mpi_world ~n:3 H.Chmad in
  spawn_rank w "r1" (fun () ->
      Engine.sleep (Time.us 50.0);
      Mpi.send (rank_ctx w 1) ~dst:0 ~tag:7 (Bytes.make 4 'x'));
  spawn_rank w "r2" (fun () ->
      Mpi.send (rank_ctx w 2) ~dst:0 ~tag:9 (Bytes.make 4 'y'));
  spawn_rank w "r0" (fun () ->
      let buf = Bytes.create 4 in
      let st1 = Mpi.recv (rank_ctx w 0) ~src:Mpi.any_source ~tag:Mpi.any_tag buf in
      Alcotest.(check int) "first from 2" 2 st1.Mpi.status_src;
      let st2 = Mpi.recv (rank_ctx w 0) ~src:Mpi.any_source ~tag:Mpi.any_tag buf in
      Alcotest.(check int) "then from 1" 1 st2.Mpi.status_src);
  Engine.run w.H.mpi_engine

let test_unexpected_messages_buffered () =
  let w = H.make_mpi_world ~n:2 H.Chmad in
  let data = payload 300 2L in
  spawn_rank w "r0" (fun () ->
      Mpi.send (rank_ctx w 0) ~dst:1 ~tag:1 data;
      Mpi.send (rank_ctx w 0) ~dst:1 ~tag:2 (Bytes.make 8 'b'));
  spawn_rank w "r1" (fun () ->
      (* Receive in reverse tag order, long after arrival. *)
      Engine.sleep (Time.ms 1.0);
      let b2 = Bytes.create 8 and b1 = Bytes.create 300 in
      ignore (Mpi.recv (rank_ctx w 1) ~src:0 ~tag:2 b2);
      ignore (Mpi.recv (rank_ctx w 1) ~src:0 ~tag:1 b1);
      Alcotest.(check bytes) "tag1 content" data b1;
      Alcotest.(check bytes) "tag2 content" (Bytes.make 8 'b') b2);
  Engine.run w.H.mpi_engine

let test_tag_order_preserved_same_tag () =
  let w = H.make_mpi_world ~n:2 H.Chmad in
  spawn_rank w "r0" (fun () ->
      for i = 1 to 5 do
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int i);
        Mpi.send (rank_ctx w 0) ~dst:1 ~tag:3 b
      done);
  spawn_rank w "r1" (fun () ->
      for i = 1 to 5 do
        let b = Bytes.create 8 in
        ignore (Mpi.recv (rank_ctx w 1) ~src:0 ~tag:3 b);
        Alcotest.(check int) "fifo" i (Int64.to_int (Bytes.get_int64_le b 0))
      done);
  Engine.run w.H.mpi_engine

let test_isend_irecv_waitall () =
  let w = H.make_mpi_world ~n:2 H.Chmad in
  spawn_rank w "r0" (fun () ->
      let reqs =
        List.init 4 (fun i ->
            Mpi.isend (rank_ctx w 0) ~dst:1 ~tag:i (Bytes.make 100 (Char.chr (65 + i))))
      in
      ignore (Mpi.waitall reqs));
  spawn_rank w "r1" (fun () ->
      let bufs = List.init 4 (fun _ -> Bytes.create 100) in
      let reqs =
        List.mapi (fun i b -> Mpi.irecv (rank_ctx w 1) ~src:0 ~tag:i b) bufs
      in
      ignore (Mpi.waitall reqs);
      List.iteri
        (fun i b ->
          Alcotest.(check char) "content" (Char.chr (65 + i)) (Bytes.get b 0))
        bufs);
  Engine.run w.H.mpi_engine

let test_probe () =
  let w = H.make_mpi_world ~n:2 H.Chmad in
  spawn_rank w "r0" (fun () ->
      Engine.sleep (Time.us 30.0);
      Mpi.send (rank_ctx w 0) ~dst:1 ~tag:5 (Bytes.create 64));
  spawn_rank w "r1" (fun () ->
      let c = rank_ctx w 1 in
      Alcotest.(check bool) "iprobe empty" true (Mpi.iprobe c ~src:0 ~tag:5 = None);
      let st = Mpi.probe c ~src:Mpi.any_source ~tag:Mpi.any_tag in
      Alcotest.(check int) "probe len" 64 st.Mpi.status_len;
      let buf = Bytes.create 64 in
      ignore (Mpi.recv c ~src:0 ~tag:5 buf));
  Engine.run w.H.mpi_engine

let test_message_too_large_rejected () =
  let w = H.make_mpi_world ~n:2 H.Chmad in
  spawn_rank w "r0" (fun () ->
      Mpi.send (rank_ctx w 0) ~dst:1 ~tag:0 (Bytes.create 128));
  spawn_rank w "r1" (fun () ->
      Engine.sleep (Time.ms 1.0);
      Alcotest.check_raises "too large"
        (Invalid_argument "Mpi.recv: message larger than buffer") (fun () ->
          ignore (Mpi.recv (rank_ctx w 1) ~src:0 ~tag:0 (Bytes.create 16))));
  Engine.run w.H.mpi_engine

(* ------------------------------------------------------------------ *)
(* Collectives (5 ranks: exercises non-power-of-two trees) *)

let run_collective n f =
  let w = H.make_mpi_world ~n H.Chmad in
  for r = 0 to n - 1 do
    spawn_rank w (Printf.sprintf "r%d" r) (fun () -> f (rank_ctx w r) r)
  done;
  Engine.run w.H.mpi_engine

let test_barrier_synchronizes () =
  let n = 5 in
  let release = ref Time.zero in
  let w = H.make_mpi_world ~n H.Chmad in
  for r = 0 to n - 1 do
    spawn_rank w (Printf.sprintf "r%d" r) (fun () ->
        Engine.sleep (Time.us (float_of_int (r * 100)));
        Mpi.barrier (rank_ctx w r);
        (* Nobody exits before the slowest entered at 400us. *)
        if Time.compare (Engine.now w.H.mpi_engine) (Time.us 400.0) < 0 then
          Alcotest.failf "rank %d left the barrier early" r;
        if r = 0 then release := Engine.now w.H.mpi_engine)
  done;
  Engine.run w.H.mpi_engine;
  Alcotest.(check bool) "released" true (Time.compare !release Time.zero > 0)

let test_bcast_delivers_to_all () =
  let n = 5 in
  let data = payload 2000 3L in
  run_collective n (fun c r ->
      let buf = if r = 2 then Bytes.copy data else Bytes.create 2000 in
      Mpi.bcast c ~root:2 buf;
      Alcotest.(check bytes) (Printf.sprintf "rank %d" r) data buf)

let int_sum a b =
  let r = Bytes.create 8 in
  Bytes.set_int64_le r 0
    (Int64.add (Bytes.get_int64_le a 0) (Bytes.get_int64_le b 0));
  r

let test_reduce_sums () =
  let n = 5 in
  run_collective n (fun c r ->
      let mine = Bytes.create 8 in
      Bytes.set_int64_le mine 0 (Int64.of_int (r + 1));
      let result = Mpi.reduce c ~root:1 ~op:int_sum mine in
      if r = 1 then
        Alcotest.(check int) "sum 1..5" 15
          (Int64.to_int (Bytes.get_int64_le result 0)))

let test_allreduce () =
  let n = 4 in
  run_collective n (fun c r ->
      let mine = Bytes.create 8 in
      Bytes.set_int64_le mine 0 (Int64.of_int (10 * (r + 1)));
      let result = Mpi.allreduce c ~op:int_sum mine in
      Alcotest.(check int)
        (Printf.sprintf "rank %d sees total" r)
        100
        (Int64.to_int (Bytes.get_int64_le result 0)))

let test_gather () =
  let n = 4 in
  run_collective n (fun c r ->
      let mine = Bytes.make 4 (Char.chr (48 + r)) in
      match Mpi.gather c ~root:0 mine with
      | Some parts ->
          Alcotest.(check int) "root" 0 r;
          Array.iteri
            (fun i p ->
              Alcotest.(check char) "part" (Char.chr (48 + i)) (Bytes.get p 0))
            parts
      | None -> Alcotest.(check bool) "non root" true (r <> 0))

let test_scatter () =
  let n = 4 in
  run_collective n (fun c r ->
      let parts =
        if r = 1 then
          Some (Array.init n (fun i -> Bytes.make 16 (Char.chr (65 + i))))
        else None
      in
      let mine = Mpi.scatter c ~root:1 parts in
      Alcotest.(check char)
        (Printf.sprintf "rank %d part" r)
        (Char.chr (65 + r))
        (Bytes.get mine 0))

let test_alltoall () =
  let n = 4 in
  run_collective n (fun c r ->
      let blocks =
        Array.init n (fun j ->
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 (Int64.of_int ((r * 100) + j));
            b)
      in
      let got = Mpi.alltoall c blocks in
      Array.iteri
        (fun i b ->
          Alcotest.(check int)
            (Printf.sprintf "rank %d slot %d" r i)
            ((i * 100) + r)
            (Int64.to_int (Bytes.get_int64_le b 0)))
        got)

let test_sendrecv_ring () =
  (* Every rank sends to its right neighbour and receives from its left,
     all simultaneously — without sendrecv this shape deadlocks under
     rendezvous. *)
  let n = 5 in
  run_collective n (fun c r ->
      let out = Bytes.create 20_000 in
      Bytes.set_int64_le out 0 (Int64.of_int r);
      let inc = Bytes.create 20_000 in
      let st =
        Mpi.sendrecv c ~dst:((r + 1) mod n) ~send_tag:9 out
          ~src:((r + n - 1) mod n) ~recv_tag:9 inc
      in
      Alcotest.(check int) "from left" ((r + n - 1) mod n) st.Mpi.status_src;
      Alcotest.(check int) "payload" ((r + n - 1) mod n)
        (Int64.to_int (Bytes.get_int64_le inc 0)))

(* ------------------------------------------------------------------ *)
(* Communicators *)

let test_comm_split_groups () =
  (* Six ranks split into odd/even groups; each group allreduces its own
     sum and broadcasts a token — fully isolated from the other group. *)
  let n = 6 in
  run_collective n (fun c r ->
      let world = Mpi.comm_world c in
      Alcotest.(check int) "world rank" r (Mpi.comm_rank world);
      Alcotest.(check int) "world size" n (Mpi.comm_size world);
      (* Reverse ordering within the group via the key. *)
      let sub = Mpi.comm_split world ~color:(r mod 2) ~key:(-r) in
      Alcotest.(check int) "group size" 3 (Mpi.comm_size sub);
      (* key = -r: highest world rank gets comm rank 0. *)
      let expect_index =
        match r with
        | 4 | 5 -> 0
        | 2 | 3 -> 1
        | _ -> 2
      in
      Alcotest.(check int) "my comm rank" expect_index (Mpi.comm_rank sub);
      let mine = Bytes.create 8 in
      Bytes.set_int64_le mine 0 (Int64.of_int r);
      let total = Mpi.callreduce sub ~op:int_sum mine in
      let expect_sum = if r mod 2 = 0 then 0 + 2 + 4 else 1 + 3 + 5 in
      Alcotest.(check int)
        (Printf.sprintf "rank %d group sum" r)
        expect_sum
        (Int64.to_int (Bytes.get_int64_le total 0)))

let test_comm_p2p_isolated () =
  (* Same tag, same world ranks, two different communicators: messages
     must match within their own communicator only. *)
  let n = 4 in
  run_collective n (fun c r ->
      let world = Mpi.comm_world c in
      (* Two overlapping comms: {0,1,2,3} split as pairs two ways. *)
      let by_low = Mpi.comm_split world ~color:(r / 2) ~key:r in
      let by_parity = Mpi.comm_split world ~color:(r mod 2) ~key:r in
      (* In by_low, partner is comm-rank (1 - my rank); same in parity. *)
      let exchange comm marker =
        let me = Mpi.comm_rank comm in
        let partner = 1 - me in
        let out = Bytes.make 8 marker in
        let inc = Bytes.create 8 in
        if me = 0 then begin
          Mpi.csend comm ~dst:partner ~tag:77 out;
          ignore (Mpi.crecv comm ~src:partner ~tag:77 inc)
        end
        else begin
          ignore (Mpi.crecv comm ~src:partner ~tag:77 inc);
          Mpi.csend comm ~dst:partner ~tag:77 out
        end;
        Alcotest.(check char) "right stream" marker (Bytes.get inc 0)
      in
      exchange by_low 'L';
      exchange by_parity 'P';
      Mpi.cbarrier by_low)

let test_comm_bcast_subgroup () =
  let n = 5 in
  run_collective n (fun c r ->
      let world = Mpi.comm_world c in
      (* Ranks >= 2 form a group; 0 and 1 each form singleton-ish pair. *)
      let color = if r >= 2 then 1 else 0 in
      let sub = Mpi.comm_split world ~color ~key:r in
      if color = 1 then begin
        let buf =
          if Mpi.comm_rank sub = 0 then Bytes.make 16 '!' else Bytes.create 16
        in
        Mpi.cbcast sub ~root:0 buf;
        Alcotest.(check bytes) "subgroup bcast" (Bytes.make 16 '!') buf
      end)

(* ------------------------------------------------------------------ *)
(* Fig. 6: the device comparison *)

let test_fig6_latencies () =
  (* Paper: MPICH/Madeleine latency "does not compare favorably" to the
     direct MPI implementations. *)
  let chmad = Time.to_us (H.mpi_pingpong H.Chmad ~bytes_count:4 ~iters:30) in
  let scimpich =
    Time.to_us
      (H.mpi_pingpong (H.Scidirect Mpilite.Dev_scidirect.sci_mpich) ~bytes_count:4
         ~iters:30)
  in
  let scampi =
    Time.to_us
      (H.mpi_pingpong (H.Scidirect Mpilite.Dev_scidirect.scampi) ~bytes_count:4
         ~iters:30)
  in
  in_range ~lo:6.0 ~hi:12.0 "chmad latency" chmad;
  in_range ~lo:3.0 ~hi:7.0 "sci-mpich latency" scimpich;
  in_range ~lo:4.0 ~hi:8.0 "scampi latency" scampi;
  Alcotest.(check bool)
    (Printf.sprintf "chmad %.1f worst latency (vs %.1f, %.1f)" chmad scimpich
       scampi)
    true
    (chmad > scimpich && chmad > scampi)

let test_fig6_bandwidth_crossover () =
  (* Paper: the ch_mad module provides the best bandwidth for messages of
     32 kB and above, approaching raw Madeleine. *)
  let bw kind n =
    Time.rate_mb_s ~bytes_count:n (H.mpi_pingpong kind ~bytes_count:n ~iters:4)
  in
  let large = 1 lsl 20 in
  let chmad = bw H.Chmad large in
  let scimpich = bw (H.Scidirect Mpilite.Dev_scidirect.sci_mpich) large in
  let scampi = bw (H.Scidirect Mpilite.Dev_scidirect.scampi) large in
  in_range ~lo:72.0 ~hi:84.0 "chmad 1MB" chmad;
  Alcotest.(check bool)
    (Printf.sprintf "chmad best at 1MB: %.1f > %.1f, %.1f" chmad scampi scimpich)
    true
    (chmad > scampi && chmad > scimpich);
  (* And at small-mid sizes the direct implementations still lead. *)
  let small = 4096 in
  let chmad_s = bw H.Chmad small in
  let scampi_s = bw (H.Scidirect Mpilite.Dev_scidirect.scampi) small in
  Alcotest.(check bool)
    (Printf.sprintf "scampi leads at 4kB: %.1f > %.1f" scampi_s chmad_s)
    true (scampi_s > chmad_s)

(* ------------------------------------------------------------------ *)
(* Madeleine on top of MPI (paper §5.3 / §7): the stack turned around. *)

let make_mad_over_mpi_world () =
  let w = H.make_mpi_world ~n:2 (H.Scidirect Mpilite.Dev_scidirect.scampi) in
  let session =
    Madeleine.Session.create w.H.mpi_engine
  in
  let driver = Mpilite.Pmm_mpi.driver (fun r -> rank_ctx w r) in
  let channel = Madeleine.Channel.create session driver ~ranks:[ 0; 1 ] () in
  (w, channel)

let test_madeleine_over_mpi_roundtrip () =
  let w, channel = make_mad_over_mpi_world () in
  let module Mad = Madeleine.Api in
  let ep0 = Madeleine.Channel.endpoint channel ~rank:0 in
  let ep1 = Madeleine.Channel.endpoint channel ~rank:1 in
  let hdr = payload 8 11L and body = payload 60_000 12L in
  spawn_rank w "sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc ~r_mode:Madeleine.Iface.Receive_express hdr;
      Mad.pack oc body;
      Mad.end_packing oc);
  spawn_rank w "receiver" (fun () ->
      let ic = Mad.begin_unpacking ep1 in
      let h = Bytes.create 8 and b = Bytes.create 60_000 in
      Mad.unpack ic ~r_mode:Madeleine.Iface.Receive_express h;
      Mad.unpack ic b;
      Mad.end_unpacking ic;
      Alcotest.(check bytes) "hdr" hdr h;
      Alcotest.(check bytes) "body" body b;
      Alcotest.(check int) "source" 0 (Mad.remote_rank ic));
  Engine.run w.H.mpi_engine

let test_madeleine_over_mpi_sequence () =
  let w, channel = make_mad_over_mpi_world () in
  let module Mad = Madeleine.Api in
  let ep0 = Madeleine.Channel.endpoint channel ~rank:0 in
  let ep1 = Madeleine.Channel.endpoint channel ~rank:1 in
  let got = ref [] in
  spawn_rank w "sender" (fun () ->
      for i = 1 to 5 do
        let b = Bytes.create 16 in
        Bytes.set_int64_le b 0 (Int64.of_int i);
        let oc = Mad.begin_packing ep0 ~remote:1 in
        Mad.pack oc b;
        Mad.end_packing oc
      done);
  spawn_rank w "receiver" (fun () ->
      for _ = 1 to 5 do
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        let b = Bytes.create 16 in
        Mad.unpack ic b;
        Mad.end_unpacking ic;
        got := Int64.to_int (Bytes.get_int64_le b 0) :: !got
      done);
  Engine.run w.H.mpi_engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

(* ------------------------------------------------------------------ *)
(* MPI across clusters of clusters: ch_mad over a virtual channel. *)

let make_hetero_mpi_world () =
  (* Ranks 0 (SCI cluster), 1 (gateway), 2 (Myrinet cluster). *)
  let w = Harness.two_cluster_world () in
  let vc =
    Madeleine.Vchannel.create w.Harness.cw_session ~mtu:16384
      [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let devices = Array.init 3 (fun rank -> Mpilite.Dev_chmad_v.make vc ~rank) in
  let world = Mpi.create_world w.Harness.cw_engine ~devices in
  (w.Harness.cw_engine, world)

let test_hetero_mpi_p2p () =
  let engine, world = make_hetero_mpi_world () in
  let data = payload 100_000 91L in
  Engine.spawn engine ~name:"r0" (fun () ->
      (* 0 -> 2 crosses the gateway. *)
      Mpi.send (Mpi.ctx world ~rank:0) ~dst:2 ~tag:5 data);
  Engine.spawn engine ~name:"r2" (fun () ->
      let buf = Bytes.create 100_000 in
      let st = Mpi.recv (Mpi.ctx world ~rank:2) ~src:0 ~tag:5 buf in
      Alcotest.(check int) "len" 100_000 st.Mpi.status_len;
      Alcotest.(check bytes) "content across gateway" data buf);
  Engine.run engine

let test_hetero_mpi_allreduce () =
  let engine, world = make_hetero_mpi_world () in
  for r = 0 to 2 do
    Engine.spawn engine ~name:(Printf.sprintf "r%d" r) (fun () ->
        let c = Mpi.ctx world ~rank:r in
        let mine = Bytes.create 8 in
        Bytes.set_int64_le mine 0 (Int64.of_int ((r + 1) * 10));
        let total = Mpi.allreduce c ~op:int_sum mine in
        Alcotest.(check int)
          (Printf.sprintf "rank %d total" r)
          60
          (Int64.to_int (Bytes.get_int64_le total 0)))
  done;
  Engine.run engine

(* ------------------------------------------------------------------ *)
(* Fault-tolerance: dead peers mid-collective. *)

(* Regression: a barrier over a world where two ranks never show up
   used to block every survivor forever in vrecv. With a liveness
   predicate installed, each survivor now fails typed, naming the rank
   it was waiting on (binomial fan-in at n=4: 0 waits on 1, 2 waits
   on 3). *)
let test_collective_failure_typed () =
  let w = H.make_mpi_world ~n:4 H.Chmad in
  let alive r = r <> 1 && r <> 3 in
  let failures = ref [] in
  List.iter
    (fun r ->
      spawn_rank w (Printf.sprintf "r%d" r) (fun () ->
          let c = rank_ctx w r in
          Mpi.set_liveness c (Some alive);
          match Mpi.barrier c with
          | () -> Alcotest.failf "rank %d: barrier completed" r
          | exception Mpi.Collective_failed msg ->
              failures := (r, msg) :: !failures))
    [ 0; 2 ];
  Engine.run w.H.mpi_engine;
  let msg_of r = List.assoc r !failures in
  Alcotest.(check int) "both survivors failed" 2 (List.length !failures);
  let names_dead ~dead msg =
    let prefix = Printf.sprintf "rank %d died" dead in
    Alcotest.(check bool)
      (Printf.sprintf "%S names rank %d" msg dead)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)
  in
  names_dead ~dead:1 (msg_of 0);
  names_dead ~dead:3 (msg_of 2)

(* Retargeting the world collectives onto the vchannel's fault-tolerant
   spanning trees keeps the MPI-level semantics: barrier synchronizes,
   allreduce sums, bcast delivers. *)
let test_use_collectives_retarget () =
  let w = Harness.two_cluster_world () in
  let engine = w.Harness.cw_engine in
  let vc =
    Madeleine.Vchannel.create w.Harness.cw_session ~mtu:16384
      [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let devices = Array.init 3 (fun rank -> Mpilite.Dev_chmad_v.make vc ~rank) in
  let world = Mpi.create_world engine ~devices in
  let coll = Madeleine.Collectives.create vc in
  Mpi.use_collectives world coll;
  for r = 0 to 2 do
    Engine.spawn engine ~name:(Printf.sprintf "r%d" r) (fun () ->
        let c = Mpi.ctx world ~rank:r in
        Mpi.barrier c;
        let mine = Bytes.create 8 in
        Bytes.set_int64_le mine 0 (Int64.of_int ((r + 1) * 10));
        let total = Mpi.allreduce c ~op:int_sum mine in
        Alcotest.(check int)
          (Printf.sprintf "rank %d allreduce" r)
          60
          (Int64.to_int (Bytes.get_int64_le total 0));
        let msg = Bytes.make 5 (if r = 1 then '!' else '.') in
        Mpi.bcast c ~root:1 msg;
        Alcotest.(check bytes)
          (Printf.sprintf "rank %d bcast" r)
          (Bytes.make 5 '!') msg)
  done;
  Engine.run engine;
  let st = Madeleine.Collectives.stats coll in
  Alcotest.(check bool)
    "tree collectives actually ran" true
    (st.Madeleine.Collectives.packets > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mpi"
    [
      ( "p2p",
        [
          Alcotest.test_case "roundtrip" `Quick test_send_recv_roundtrip;
          Alcotest.test_case "any source/tag" `Quick test_any_source_any_tag;
          Alcotest.test_case "unexpected buffered" `Quick
            test_unexpected_messages_buffered;
          Alcotest.test_case "same-tag fifo" `Quick
            test_tag_order_preserved_same_tag;
          Alcotest.test_case "isend/irecv" `Quick test_isend_irecv_waitall;
          Alcotest.test_case "probe" `Quick test_probe;
          Alcotest.test_case "too large" `Quick test_message_too_large_rejected;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "barrier" `Quick test_barrier_synchronizes;
          Alcotest.test_case "bcast" `Quick test_bcast_delivers_to_all;
          Alcotest.test_case "reduce" `Quick test_reduce_sums;
          Alcotest.test_case "allreduce" `Quick test_allreduce;
          Alcotest.test_case "gather" `Quick test_gather;
          Alcotest.test_case "scatter" `Quick test_scatter;
          Alcotest.test_case "alltoall" `Quick test_alltoall;
          Alcotest.test_case "sendrecv ring" `Quick test_sendrecv_ring;
        ] );
      ( "communicators",
        [
          Alcotest.test_case "split groups" `Quick test_comm_split_groups;
          Alcotest.test_case "p2p isolation" `Quick test_comm_p2p_isolated;
          Alcotest.test_case "subgroup bcast" `Quick test_comm_bcast_subgroup;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "latencies" `Quick test_fig6_latencies;
          Alcotest.test_case "bandwidth crossover" `Quick
            test_fig6_bandwidth_crossover;
        ] );
      ( "heterogeneous mpi",
        [
          Alcotest.test_case "p2p across gateway" `Quick test_hetero_mpi_p2p;
          Alcotest.test_case "allreduce across clusters" `Quick
            test_hetero_mpi_allreduce;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "collective failure surfaces typed" `Quick
            test_collective_failure_typed;
          Alcotest.test_case "retargeted collectives" `Quick
            test_use_collectives_retarget;
        ] );
      ( "madeleine over mpi",
        [
          Alcotest.test_case "roundtrip" `Quick
            test_madeleine_over_mpi_roundtrip;
          Alcotest.test_case "message sequence" `Quick
            test_madeleine_over_mpi_sequence;
        ] );
    ]
