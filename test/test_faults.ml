(* Tests for the fault-injection plane and the reliable TCP path built
   on it: CRC detection, retransmission under loss and corruption, link
   flaps, typed timeouts, PCI stalls, and byte-reproducibility of a
   seeded faulty run. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Faults = Simnet.Faults

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

(* A two-host Ethernet with a fault plane attached and one established
   TCP connection between the hosts. *)
type fw = {
  engine : Engine.t;
  faults : Faults.t;
  net : Tcpnet.net;
  stacks : Tcpnet.t array;
  nodes : Node.t array;
  c0 : Tcpnet.conn;
  c1 : Tcpnet.conn;
}

let faulty_world ?(seed = 7L) ?(drop = 0.0) ?(corrupt = 0.0) ?(plane = true)
    () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed in
  (* Without the plane attached, Tcpnet runs its fault-free path. *)
  if plane then Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  for i = 0 to 1 do
    if drop > 0.0 then Faults.set_drop faults ~fabric:"eth" ~node:i ~rate:drop;
    if corrupt > 0.0 then
      Faults.set_corrupt faults ~fabric:"eth" ~node:i ~rate:corrupt
  done;
  let net = Tcpnet.make_net engine fabric in
  let stacks = Array.map (Tcpnet.attach net) nodes in
  let c0, c1 = Tcpnet.socketpair stacks.(0) stacks.(1) in
  { engine; faults; net; stacks; nodes; c0; c1 }

(* Ship [msgs] distinct payloads one way, verifying every delivered
   byte; returns the world and the finish time. *)
let faulty_transfer w ~size ~msgs =
  let datas = List.init msgs (fun i -> payload size (Int64.of_int (100 + i))) in
  let ok = ref true and finish = ref Time.zero in
  Engine.spawn w.engine ~name:"send" (fun () ->
      List.iter (fun d -> Tcpnet.send w.c0 d) datas);
  Engine.spawn w.engine ~name:"recv" (fun () ->
      List.iter
        (fun d ->
          let sink = Bytes.create size in
          Tcpnet.recv w.c1 sink ~off:0 ~len:size;
          if not (Bytes.equal sink d) then ok := false)
        datas;
      finish := Engine.now w.engine);
  Engine.run w.engine;
  (!ok, !finish)

let test_crc_known_vector () =
  Alcotest.(check int) "crc32(\"\")" 0 (Simnet.Checksum.crc32 Bytes.empty);
  Alcotest.(check int)
    "crc32(\"123456789\")" 0xCBF43926
    (Simnet.Checksum.crc32 (Bytes.of_string "123456789"))

(* Byte-at-a-time reference CRC-32 (same reflected polynomial), the
   oracle for the sliced kernel. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_crc32 b ~off ~len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := ref_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_every_alignment () =
  (* Every start offset mod 8 against every tail length, across the
     8-byte step boundary. *)
  let b = payload 96 5L in
  for off = 0 to 15 do
    for len = 0 to 80 do
      Alcotest.(check int)
        (Printf.sprintf "off %d len %d" off len)
        (ref_crc32 b ~off ~len)
        (Simnet.Checksum.crc32 ~off ~len b)
    done
  done

let prop_crc_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 0 9216 >>= fun size ->
      int_range 0 size >>= fun off ->
      int_range 0 (size - off) >>= fun len ->
      int >|= fun seed -> (size, off, len, seed))
  in
  QCheck.Test.make ~name:"crc32 matches the bytewise reference" ~count:300
    (QCheck.make
       ~print:(fun (size, off, len, seed) ->
         Printf.sprintf "size %d off %d len %d seed %d" size off len seed)
       gen)
    (fun (size, off, len, seed) ->
      let b = payload size (Int64.of_int seed) in
      Simnet.Checksum.crc32 ~off ~len b = ref_crc32 b ~off ~len
      && Simnet.Checksum.crc32 ~off b = ref_crc32 b ~off ~len:(size - off)
      && Simnet.Checksum.crc32 b = ref_crc32 b ~off:0 ~len:size)

let test_crc_out_of_bounds () =
  let b = Bytes.create 16 in
  List.iter
    (fun (off, len) ->
      let name =
        Printf.sprintf "off %d len %s" off
          (match len with Some l -> string_of_int l | None -> "-")
      in
      match Simnet.Checksum.crc32 ~off ?len b with
      | _ -> Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument _ -> ())
    [
      (* [off + len] wraps negative and used to pass the check. *)
      (1, Some max_int);
      (16, Some max_int);
      (0, Some 17);
      (8, Some 9);
      (-1, Some 4);
      (2, Some (-1));
      (17, None);
      (max_int, None);
      (min_int, Some 0);
    ];
  Alcotest.(check int) "empty range at the end" 0
    (Simnet.Checksum.crc32 ~off:16 b)

let test_zero_rate_plane_changes_nothing () =
  (* Attaching a plane but configuring no fault must not consume any
     randomness nor drop anything; the transfer completes intact. *)
  let w = faulty_world () in
  let ok, _ = faulty_transfer w ~size:16384 ~msgs:2 in
  Alcotest.(check bool) "intact" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check int) "no drops" 0 st.Faults.frames_dropped;
  let retrans, crc = Tcpnet.net_stats w.net in
  Alcotest.(check int) "no retransmissions" 0 retrans;
  Alcotest.(check int) "no crc rejects" 0 crc

let test_drop_retransmit_intact () =
  let w = faulty_world ~drop:0.02 () in
  let ok, _ = faulty_transfer w ~size:16384 ~msgs:6 in
  Alcotest.(check bool) "intact under 2% loss" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check bool) "some frames dropped" true
    (st.Faults.frames_dropped > 0);
  let retrans, _ = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "retransmissions happened" true (retrans > 0)

let test_corruption_detected_and_recovered () =
  let w = faulty_world ~corrupt:0.05 () in
  let ok, _ = faulty_transfer w ~size:8192 ~msgs:6 in
  Alcotest.(check bool) "intact under corruption" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check bool) "some frames corrupted" true
    (st.Faults.frames_corrupted > 0);
  let _, crc = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "CRC rejected the corrupted frames" true (crc > 0)

let test_flap_delays_but_completes () =
  let clean = faulty_world () in
  let _, t_clean = faulty_transfer clean ~size:16384 ~msgs:4 in
  let w = faulty_world () in
  Faults.flap_link w.faults ~fabric:"eth" ~node:1
    ~at:(Time.add Time.zero (Time.us 2_000.0))
    ~duration:(Time.us 5_000.0);
  let ok, t_flap = faulty_transfer w ~size:16384 ~msgs:4 in
  Alcotest.(check bool) "intact across the flap" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check int) "one flap recorded" 1 st.Faults.flaps;
  let retrans, _ = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "flap forced retransmissions" true (retrans > 0);
  Alcotest.(check bool) "flap delayed completion" true Time.(t_clean < t_flap)

let test_pci_stall_slows_transfer () =
  let clean = faulty_world () in
  let _, t_clean = faulty_transfer clean ~size:65536 ~msgs:1 in
  let w = faulty_world () in
  (* The wire, not the PCI bus, is the steady-state bottleneck, so a
     stall that ends before the last fragment leaves the wire only makes
     fragments queue at the receiver without moving the finish line.
     Keep the stall open past the clean finish (~5.9 ms) so the tail
     fragments cross a contended bus. *)
  Faults.stall_pci w.faults w.nodes.(1)
    ~at:(Time.add Time.zero (Time.us 3_000.0))
    ~duration:(Time.us 5_000.0);
  let ok, t_stall = faulty_transfer w ~size:65536 ~msgs:1 in
  Alcotest.(check bool) "intact across the stall" true ok;
  Alcotest.(check bool) "stall slowed the transfer" true
    Time.(t_clean < t_stall)

(* The send path stages the caller's bytes once, on entry: overwriting
   the caller's buffers right after [send]/[send_group] returns must not
   change what the receiver reads, on the fault-free path (the staged
   bytes wait in the delivery stream) or the reliable one (they are the
   frame that retransmissions resend). A [send_group] of slices at
   nonzero offsets delivers exactly those bytes. *)
let one_copy_contract ~plane ~drop () =
  let w = faulty_world ~plane ~drop () in
  let msgs = 8 in
  let whole = List.init msgs (fun i -> payload 3000 (Int64.of_int (200 + i))) in
  let parts =
    List.init msgs (fun i ->
        (payload 700 (Int64.of_int (300 + i)), payload 5000 (Int64.of_int (400 + i))))
  in
  let expected =
    List.map2
      (fun d (g, h) ->
        (Bytes.copy d, Bytes.cat (Bytes.sub g 5 100) (Bytes.sub h 17 4000)))
      whole parts
  in
  Engine.spawn w.engine ~name:"send" (fun () ->
      List.iter2
        (fun d (g, h) ->
          Tcpnet.send w.c0 d;
          Bytes.fill d 0 (Bytes.length d) 'X';
          Tcpnet.send_group w.c0 [ (g, 5, 100); (h, 17, 4000) ];
          Bytes.fill g 0 (Bytes.length g) 'Y';
          Bytes.fill h 0 (Bytes.length h) 'Z')
        whole parts);
  let got = ref [] in
  Engine.spawn w.engine ~name:"recv" (fun () ->
      List.iter
        (fun _ ->
          let d = Bytes.create 3000 and gh = Bytes.create 4100 in
          Tcpnet.recv w.c1 d ~off:0 ~len:3000;
          Tcpnet.recv w.c1 gh ~off:0 ~len:4100;
          got := (d, gh) :: !got)
        whole);
  Engine.run w.engine;
  let got = List.rev !got in
  Alcotest.(check int) "every message read" msgs (List.length got);
  List.iteri
    (fun i ((d, gh), (d', gh')) ->
      Alcotest.(check bool) (Printf.sprintf "send %d intact" i) true
        (Bytes.equal d d');
      Alcotest.(check bool) (Printf.sprintf "send_group %d intact" i) true
        (Bytes.equal gh gh'))
    (List.combine expected got);
  w

let test_one_copy_fault_free () =
  let w = one_copy_contract ~plane:false ~drop:0.0 () in
  Alcotest.(check (pair int int)) "no reliable machinery" (0, 0)
    (Tcpnet.net_stats w.net)

let test_one_copy_reliable () =
  let w = one_copy_contract ~plane:true ~drop:0.05 () in
  let retrans, _ = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "retransmissions resent the staged frames" true
    (retrans > 0)

let test_send_group_rejects_bad_slice () =
  let w = faulty_world ~plane:false () in
  let b = Bytes.create 8 in
  List.iter
    (fun (off, len) ->
      match Tcpnet.send_group w.c0 [ (b, 0, 4); (b, off, len) ] with
      | () -> Alcotest.failf "off %d len %d: expected Invalid_argument" off len
      | exception Invalid_argument _ -> ())
    [ (4, 5); (-1, 2); (2, -1); (1, max_int); (9, 0) ];
  Alcotest.(check int) "nothing sent" 0 (Tcpnet.available w.c1)

let test_connect_timeout_on_crashed_peer () =
  let w = faulty_world () in
  Tcpnet.listen w.stacks.(1) ~port:9;
  Faults.crash_node w.faults ~node:1 ~at:Time.zero ();
  let timed_out = ref false in
  Engine.spawn w.engine ~name:"dialer" (fun () ->
      match
        Tcpnet.connect ~timeout:(Time.us 500.0) w.stacks.(0) ~node_id:1 ~port:9
      with
      | _conn -> ()
      | exception Tcpnet.Timeout _ -> timed_out := true);
  Engine.run w.engine;
  Alcotest.(check bool) "connect raised Timeout" true !timed_out

let test_recv_timeout () =
  let w = faulty_world () in
  let timed_out = ref false in
  Engine.spawn w.engine ~name:"reader" (fun () ->
      let sink = Bytes.create 64 in
      match Tcpnet.recv ~timeout:(Time.us 300.0) w.c1 sink ~off:0 ~len:64 with
      | () -> ()
      | exception Tcpnet.Timeout _ -> timed_out := true);
  Engine.run w.engine;
  Alcotest.(check bool) "recv raised Timeout" true !timed_out

let test_window_survives_reorder_dup_loss () =
  (* Under a fault plane each 2 kB send is two frames (cut at the MSS),
     so many small messages (plus their acks) give the dup/reorder draws
     enough frames to bite.
     Every seed must deliver each message exactly once, in order. *)
  let duplicated = ref 0 and delayed = ref 0 and discarded = ref 0 in
  for seed = 1 to 16 do
    let w = faulty_world ~seed:(Int64.of_int seed) ~drop:0.02 () in
    for i = 0 to 1 do
      Faults.set_reorder w.faults ~fabric:"eth" ~node:i ~rate:0.2
        ~jitter:(Time.us 300.0);
      Faults.set_duplicate w.faults ~fabric:"eth" ~node:i ~rate:0.15
    done;
    let ok, _ = faulty_transfer w ~size:2048 ~msgs:40 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: in-order delivery" seed)
      true ok;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: nothing delivered twice" seed)
      0 (Tcpnet.available w.c1);
    let st = Faults.stats w.faults in
    duplicated := !duplicated + st.Faults.frames_duplicated;
    delayed := !delayed + st.Faults.frames_delayed;
    discarded := !discarded + Tcpnet.duplicate_frames w.c1
  done;
  Alcotest.(check bool) "frames were actually duplicated" true
    (!duplicated > 0);
  Alcotest.(check bool) "frames were actually held back" true (!delayed > 0);
  Alcotest.(check bool) "receiver discarded duplicate frames" true
    (!discarded > 0)

(* Selective-repeat recovery, with the losses scripted rather than
   drawn: a burst of eight 1 kB sends (one frame each, under the MSS)
   crosses a clean link, and each lost frame is the one whose
   delivery verdict falls in a 2 us window of 100 % drop, placed at that
   frame's delivery instant in a loss-free run. Frames arrive about
   90 us apart and acks take 61 us, so no ack falls in a window. The
   finish instant and [Tcpnet.consecutive_failures] at every in-order
   delivery tell a RACK resend or a tail-loss probe from an RTO expiry:
   an expiry counts a failure that only the next ack progress clears,
   after the resent frame has been delivered; [Tcpnet.recovery_stats]
   names the branch. Each finish instant keeps, in its comment, what the
   go-back-N window and the duplicate-ack counting that RACK-TLP
   replaced took. *)
let burst_size = 1024
let burst_frames = 8

(* 100 % drop on the receiver's link for 2 us around each instant. *)
let drop_near w instants =
  List.iter
    (fun at ->
      let set rate () = Faults.set_drop w.faults ~fabric:"eth" ~node:1 ~rate in
      let near dt = Time.add Time.zero (Time.us (Time.to_us at +. dt)) in
      Engine.at w.engine (near (-1.0)) (set 1.0);
      Engine.at w.engine (near 1.0) (set 0.0))
    instants

(* [late] more frames follow the burst after a 400 us pause. *)
let burst_run ?(frames = burst_frames) ?(late = 0) ~lost () =
  let w = faulty_world () in
  let datas =
    List.init (frames + late) (fun i ->
        payload burst_size (Int64.of_int (500 + i)))
  in
  let delivered = ref [] and failures = ref 0 in
  Tcpnet.set_data_hook w.c1 (fun () ->
      delivered := Engine.now w.engine :: !delivered;
      failures := max !failures (Tcpnet.consecutive_failures w.c0));
  drop_near w lost;
  let sink = Bytes.create (burst_size * (frames + late)) in
  let finish = ref Time.zero in
  Engine.spawn w.engine ~name:"send" (fun () ->
      List.iteri
        (fun i d ->
          if i = frames then Engine.sleep (Time.us 400.0);
          Tcpnet.send w.c0 d)
        datas);
  Engine.spawn w.engine ~name:"recv" (fun () ->
      Tcpnet.recv w.c1 sink ~off:0 ~len:(Bytes.length sink);
      finish := Engine.now w.engine);
  Engine.run w.engine;
  Alcotest.(check bool) "in-order, bit-identical bytes" true
    (Bytes.equal sink (Bytes.concat Bytes.empty datas));
  Alcotest.(check int) "nothing delivered twice" 0 (Tcpnet.available w.c1);
  (w, !finish, List.rev !delivered, !failures)

(* Delivery instants of the burst's frames on a loss-free link. *)
let burst_clean_instants ?(frames = burst_frames) ?(late = 0) () =
  let _, _, delivered, _ = burst_run ~frames ~late ~lost:[] () in
  Alcotest.(check int) "one delivery per frame" (frames + late)
    (List.length delivered);
  Array.of_list delivered

(* [(rto_expiries, rack_marks, probes)] of the world's net. *)
let branches w =
  let r = Tcpnet.recovery_stats w.net in
  (r.Tcpnet.rto_expiries, r.Tcpnet.rack_marks, r.Tcpnet.probes)

let check_branches w expected =
  Alcotest.(check (triple int int int))
    "(rto expiries, rack marks, probes)" expected (branches w)

let test_sr_one_hole () =
  let clean = burst_clean_instants () in
  let w, finish, _, failures = burst_run ~lost:[ clean.(3) ] () in
  Alcotest.(check int) "one frame dropped" 1
    (Faults.stats w.faults).Faults.frames_dropped;
  Alcotest.(check (pair int int)) "exactly the hole resent" (1, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "frames past the hole held, not discarded" 0
    (Tcpnet.duplicate_frames w.c1);
  Alcotest.(check int) "RACK resend, no RTO expiry" 0 failures;
  check_branches w (0, 1, 0);
  (* The go-back-N window that selective repeat replaced discarded
     frames 4-7, waited out the RTO and resent frames 3-7: it finished
     this run at 1679.390 us. Duplicate-ack counting waited for the
     third duplicate ack (frame 6's): 1077.692 us. RACK marks frame 3
     lost a reordering window after frame 4's ack. *)
  Alcotest.(check (float 1e-3)) "finish instant" 967.566 (Time.to_us finish)

let test_sr_two_holes () =
  let clean = burst_clean_instants () in
  let w, finish, _, failures = burst_run ~lost:[ clean.(2); clean.(5) ] () in
  Alcotest.(check int) "two frames dropped" 2
    (Faults.stats w.faults).Faults.frames_dropped;
  Alcotest.(check (pair int int)) "exactly the two holes resent" (2, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "no RTO expiry" 0 failures;
  check_branches w (0, 2, 0);
  (* Go-back-N resent six frames after an RTO expiry and finished at
     1612.434 us; duplicate-ack counting at 1166.736 us. *)
  Alcotest.(check (float 1e-3)) "finish instant" 1114.745 (Time.to_us finish)

let test_sr_partial_ack () =
  (* Frames 2 and 7 lost: the acks of frames 3-6 reveal only the first
     hole, and nothing follows frame 7. The resend of frame 2 is sent
     after frame 7, so the ack it raises — a partial ack, stopping
     short of frame 7 — marks frame 7 lost too, where a sender that
     ignored it would wait for the RTO. *)
  let clean = burst_clean_instants () in
  let w, finish, _, failures =
    burst_run ~lost:[ clean.(2); clean.(burst_frames - 1) ] ()
  in
  Alcotest.(check (pair int int)) "each hole resent once" (2, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "no RTO expiry" 0 failures;
  check_branches w (0, 2, 0);
  (* Go-back-N resent frames 2-7 after an RTO expiry: 1612.434 us;
     duplicate-ack counting with partial-ack resends: 1276.862 us. *)
  Alcotest.(check (float 1e-3)) "finish instant" 1255.780 (Time.to_us finish)

let test_sr_hole_lost_twice () =
  (* The resend of frame 3 is lost too, and no frame is sent after it,
     so no ack can mark it again: two smoothed RTTs after the last SACK
     progress, the tail-loss probe resends the highest unSACKed frame —
     that hole — never the frames the receiver reported held. *)
  let clean = burst_clean_instants () in
  let _, _, once, _ = burst_run ~lost:[ clean.(3) ] () in
  let resent = List.nth once 3 in
  let w, finish, _, failures = burst_run ~lost:[ clean.(3); resent ] () in
  Alcotest.(check (pair int int)) "the hole resent twice, nothing else"
    (2, 0) (Tcpnet.net_stats w.net);
  Alcotest.(check int) "no held frame resent" 0
    (Tcpnet.duplicate_frames w.c1);
  Alcotest.(check int) "no RTO expiry" 0 failures;
  check_branches w (0, 1, 1);
  (* Go-back-N, under the same two drop windows, finished at
     3177.656 us after 10 retransmissions and two RTO expiries;
     duplicate-ack counting resent the hole on an RTO expiry and
     finished at 1840.825 us. *)
  Alcotest.(check (float 1e-3)) "finish instant" 1731.040 (Time.to_us finish)

let test_sr_early_retransmit () =
  (* Three frames, the middle one lost: the last one's ack is the only
     one that can come, and it is enough — RACK needs one frame sent
     later to be delivered, not three duplicate acks. *)
  let clean = burst_clean_instants ~frames:3 () in
  let w, finish, _, failures = burst_run ~frames:3 ~lost:[ clean.(1) ] () in
  Alcotest.(check (pair int int)) "the hole resent once" (1, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "no RTO expiry" 0 failures;
  check_branches w (0, 1, 0);
  (* Go-back-N discarded frame 2, waited out the RTO and resent both:
     1180.900 us. Early retransmit resent frame 1 at the first
     duplicate ack: 721.516 us. RACK waits a reordering window
     (min_rtt / 4, 65 us here, less the 28 us between the two sends)
     past that ack first. *)
  Alcotest.(check (float 1e-3)) "finish instant" 758.569 (Time.to_us finish)

(* The receiver crashes holding frames 4-7 past a lost frame 3 and
   restarts 5 ms later, which resets the socket. A second burst, with
   its own lost frame 3, must then drain in order: a held frame of the
   old epoch would sit below the new cursor for good and block it.
   Returns the world and the instants of the second burst's
   deliveries. *)
let reset_run ~lost =
  let w = faulty_world () in
  let burst base =
    List.init burst_frames (fun i ->
        payload burst_size (Int64.of_int (base + i)))
  in
  let first = burst 600 and second = burst 700 in
  let clean = burst_clean_instants () in
  let crash_at = Time.add clean.(burst_frames - 1) (Time.us 5.0) in
  let restart_after = Time.us 5_000.0 in
  Faults.crash_node w.faults ~node:1 ~at:crash_at ~restart_after ();
  drop_near w (clean.(3) :: lost);
  let resumed = Time.us 10_000.0 in
  let delivered = ref [] in
  Tcpnet.set_data_hook w.c1 (fun () ->
      let now = Engine.now w.engine in
      if Time.(Time.add Time.zero resumed < now) then
        delivered := now :: !delivered);
  let sink = Bytes.create (burst_size * burst_frames) in
  let intact = ref false in
  Engine.spawn w.engine ~name:"send" (fun () ->
      List.iter (fun d -> Tcpnet.send w.c0 d) first;
      Engine.sleep resumed;
      List.iter (fun d -> Tcpnet.send w.c0 d) second);
  Engine.spawn w.engine ~name:"recv" (fun () ->
      (match Tcpnet.recv w.c1 sink ~off:0 ~len:(Bytes.length sink) with
      | () -> Alcotest.fail "the first burst cannot complete"
      | exception Tcpnet.Timeout _ -> ());
      Engine.sleep resumed;
      Tcpnet.recv w.c1 sink ~off:0 ~len:(Bytes.length sink);
      intact := Bytes.equal sink (Bytes.concat Bytes.empty second));
  Engine.run w.engine;
  Alcotest.(check bool) "second burst in order, bit-identical" true !intact;
  Alcotest.(check int) "nothing delivered twice" 0 (Tcpnet.available w.c1);
  (w, Array.of_list (List.rev !delivered))

let test_sr_reset_discards_held () =
  let _, second = reset_run ~lost:[] in
  Alcotest.(check int) "one delivery per frame" burst_frames
    (Array.length second);
  let w, _ = reset_run ~lost:[ second.(3) ] in
  (* The first burst's RACK resend died with the crash; the second
     burst's is the other one. *)
  Alcotest.(check (pair int int)) "one resend per burst" (2, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "frames past each hole held" 0
    (Tcpnet.duplicate_frames w.c1)

let test_sr_tail_loss () =
  let clean = burst_clean_instants () in
  let w, finish, _, failures =
    burst_run ~lost:[ clean.(burst_frames - 1) ] ()
  in
  Alcotest.(check (pair int int)) "the lost frame alone resent" (1, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "no held frame to discard" 0
    (Tcpnet.duplicate_frames w.c1);
  (* Nothing follows the last frame, so no ack can mark it: the
     tail-loss probe resends it two smoothed RTTs after the last ack
     progress, before its RTO would expire. *)
  Alcotest.(check int) "no RTO expiry" 0 failures;
  check_branches w (0, 0, 1);
  (* Go-back-N and duplicate-ack counting both waited for the RTO and
     resent this one frame: 1947.214 us. *)
  Alcotest.(check (float 1e-3)) "finish instant" 1859.580 (Time.to_us finish)

(* The resend of frame 3 is lost, and four more frames follow the burst
   after a pause; two of them are sent after that resend, so their acks
   mark it lost again: a lost resend with new data behind it costs a
   second RACK resend, not an RTO. *)
let test_rack_lost_resend () =
  let late = 4 in
  let clean = burst_clean_instants ~late () in
  let _, _, once, _ = burst_run ~late ~lost:[ clean.(3) ] () in
  let resent = List.nth once 3 in
  let w, _, _, failures = burst_run ~late ~lost:[ clean.(3); resent ] () in
  Alcotest.(check int) "both copies of frame 3 dropped" 2
    (Faults.stats w.faults).Faults.frames_dropped;
  Alcotest.(check (pair int int)) "frame 3 resent twice, nothing else" (2, 0)
    (Tcpnet.net_stats w.net);
  Alcotest.(check int) "no RTO expiry" 0 failures;
  check_branches w (0, 2, 0)

(* A frame held back by a [Delay] verdict arrives after the next frame.
   RACK counts it lost only a reordering window (min_rtt / 4) past the
   point its successor's ack implies, so a delay inside that window
   costs nothing, while a longer one costs one spurious resend. Frame 3
   of the burst is delayed by the plane's one reorder draw, at seed 1
   0.746 of the jitter: 119 us with 160 us of jitter, 149 us with
   200 us. Frames arrive 89 us apart, so both delays let frame 4
   overtake frame 3: one in-order delivery fewer. *)
let delayed_run ~jitter =
  let clean = burst_clean_instants () in
  let w = faulty_world ~seed:1L () in
  let delivered = ref 0 in
  Tcpnet.set_data_hook w.c1 (fun () -> incr delivered);
  let set rate () =
    Faults.set_reorder w.faults ~fabric:"eth" ~node:1 ~rate
      ~jitter:(Time.us jitter)
  in
  let near dt = Time.add Time.zero (Time.us (Time.to_us clean.(3) +. dt)) in
  Engine.at w.engine (near (-1.0)) (set 1.0);
  Engine.at w.engine (near 1.0) (set 0.0);
  let datas =
    List.init burst_frames (fun i ->
        payload burst_size (Int64.of_int (500 + i)))
  in
  let sink = Bytes.create (burst_size * burst_frames) in
  Engine.spawn w.engine ~name:"send" (fun () ->
      List.iter (fun d -> Tcpnet.send w.c0 d) datas);
  Engine.spawn w.engine ~name:"recv" (fun () ->
      Tcpnet.recv w.c1 sink ~off:0 ~len:(Bytes.length sink));
  Engine.run w.engine;
  Alcotest.(check bool) "in-order, bit-identical bytes" true
    (Bytes.equal sink (Bytes.concat Bytes.empty datas));
  Alcotest.(check int) "one frame delayed" 1
    (Faults.stats w.faults).Faults.frames_delayed;
  Alcotest.(check int) "frame 4 overtook frame 3" (burst_frames - 1)
    !delivered;
  w

let test_rack_reorder_window () =
  let w = delayed_run ~jitter:160.0 in
  Alcotest.(check (pair int int)) "inside the window: nothing resent" (0, 0)
    (Tcpnet.net_stats w.net);
  check_branches w (0, 0, 0);
  let w = delayed_run ~jitter:200.0 in
  Alcotest.(check (pair int int)) "past the window: one resend" (1, 0)
    (Tcpnet.net_stats w.net);
  check_branches w (0, 1, 0);
  Alcotest.(check int) "the resend arrived as a duplicate" 1
    (Tcpnet.recovery_stats w.net).Tcpnet.duplicate_arrivals

(* MSS segmentation: under a fault plane one [send_group] becomes
   ceil(len / MSS) frames, each with its own seq, CRC and SACK mark, so
   a lost fragment costs one 1460 B resend instead of the whole write.
   The 64 kB write is three slices whose boundaries fall inside
   segments, so the staging copy is checked across them too. *)
let big_size = 65536

let big_slices () =
  let a = payload 1000 801L
  and b = payload 30_000 802L
  and c = payload (big_size - 31_000 + 40) 803L in
  let slices = [ (a, 0, 1000); (b, 0, 30_000); (c, 40, big_size - 31_000) ] in
  let expected =
    Bytes.concat Bytes.empty
      (List.map (fun (buf, off, len) -> Bytes.sub buf off len) slices)
  in
  (slices, expected)

(* One 64 kB [send_group] from c0 to c1; returns whether it arrived
   bit-identical, the instant of every in-order frame delivery, the
   highest [consecutive_failures] seen at one and the instant the
   receive completed. *)
let big_run w =
  let slices, expected = big_slices () in
  let delivered = ref [] and failures = ref 0 in
  Tcpnet.set_data_hook w.c1 (fun () ->
      delivered := Engine.now w.engine :: !delivered;
      failures := max !failures (Tcpnet.consecutive_failures w.c0));
  let sink = Bytes.create big_size in
  let finish = ref Time.zero in
  Engine.spawn w.engine ~name:"send" (fun () -> Tcpnet.send_group w.c0 slices);
  Engine.spawn w.engine ~name:"recv" (fun () ->
      Tcpnet.recv w.c1 sink ~off:0 ~len:big_size;
      finish := Engine.now w.engine);
  Engine.run w.engine;
  ( Bytes.equal sink expected,
    Array.of_list (List.rev !delivered),
    !failures,
    !finish )

let test_mss_segments_inert () =
  let w = faulty_world () in
  let intact, delivered, _, _ = big_run w in
  Alcotest.(check bool) "bit-identical bytes" true intact;
  Alcotest.(check int) "one in-order delivery per 1460 B frame" 45
    (Array.length delivered);
  Alcotest.(check (pair int int)) "no recovery on an inert plane" (0, 0)
    (Tcpnet.net_stats w.net);
  let peak = Tcpnet.sendq_peak w.c0 in
  Alcotest.(check bool) "the window fills" true (peak > 1);
  Alcotest.(check bool) "sendq peak within the default window" true
    (peak <= 24)

let test_mss_one_lost_segment () =
  let _, clean, _, _ = big_run (faulty_world ()) in
  let w = faulty_world () in
  drop_near w [ clean.(10) ];
  let intact, _, failures, _ = big_run w in
  Alcotest.(check bool) "bit-identical bytes" true intact;
  Alcotest.(check int) "one fragment dropped" 1
    (Faults.stats w.faults).Faults.frames_dropped;
  Alcotest.(check int) "one retry" 1 (Tcpnet.retries w.c0);
  Alcotest.(check int) "RACK resend, no RTO expiry" 0 failures;
  check_branches w (0, 1, 0)

(* Every seed also finishes within [tail_bound] times the loss-free
   finish (5908.463 us). The bound is the worst case of duplicate-ack
   counting, rounded up: 2.108x at seed 8, which waited out two RTO
   expiries. With RACK-TLP the worst case is 1.215x (seed 14) and seed
   8 takes 1.080x. *)
let tail_bound = 2.2

let test_mss_64k_lossy_never_times_out () =
  let _, _, _, clean = big_run (faulty_world ()) in
  for seed = 1 to 32 do
    let w = faulty_world ~seed:(Int64.of_int seed) ~drop:0.01 () in
    match big_run w with
    | intact, _, _, finish ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: bit-identical bytes" seed)
          true intact;
        let ratio = Time.to_us finish /. Time.to_us clean in
        if ratio > tail_bound then
          Alcotest.failf "seed %d: finish %.3f us is %.3fx clean (bound %.1fx)"
            seed (Time.to_us finish) ratio tail_bound
    | exception Tcpnet.Timeout { msg; _ } ->
        Alcotest.failf "seed %d: Timeout (%s)" seed msg
  done

(* On an inert plane no frame is lost, so no branch of recovery runs:
   no RACK mark, no probe, no expiry — for the 8-frame burst, sent one
   frame per call, and for the 64 kB send, 45 frames from one call. *)
let test_inert_sends_no_probe () =
  let w, _, _, _ = burst_run ~lost:[] () in
  Alcotest.(check (pair int int)) "burst: nothing resent" (0, 0)
    (Tcpnet.net_stats w.net);
  check_branches w (0, 0, 0);
  let w = faulty_world () in
  let intact, _, _, _ = big_run w in
  Alcotest.(check bool) "64 kB: bit-identical bytes" true intact;
  Alcotest.(check (pair int int)) "64 kB: nothing resent" (0, 0)
    (Tcpnet.net_stats w.net);
  check_branches w (0, 0, 0)


let test_max_retries_gives_up_with_attempt_count () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:7L in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net ~max_retries:3 engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let c0, _c1 = Tcpnet.socketpair s0 s1 in
  (* The peer stays up but its link is down far longer than three RTO
     backoffs: the retransmitter must give up and declare the
     connection dead, and the next send must fail fast carrying the
     attempt count. *)
  Faults.flap_link faults ~fabric:"eth" ~node:1
    ~at:(Time.add Time.zero (Time.us 1.0))
    ~duration:(Time.us 400_000.0);
  let attempts = ref (-1) in
  Engine.spawn engine ~name:"sender" (fun () ->
      Engine.sleep (Time.us 100.0);
      Tcpnet.send c0 (payload 512 31L);
      Engine.sleep (Time.us 200_000.0);
      match Tcpnet.send c0 (payload 512 32L) with
      | () -> ()
      | exception Tcpnet.Timeout { attempts = n; _ } -> attempts := n);
  Engine.run engine;
  Alcotest.(check bool) "connection declared dead" true (Tcpnet.is_dead c0);
  Alcotest.(check int) "Timeout carries the configured retry limit" 3 !attempts

let test_seeded_run_is_reproducible () =
  let run () =
    let w = faulty_world ~seed:99L ~drop:0.03 () in
    let ok, finish = faulty_transfer w ~size:16384 ~msgs:5 in
    (ok, finish, Faults.stats w.faults, Tcpnet.net_stats w.net)
  in
  let ok1, t1, s1, n1 = run () in
  let ok2, t2, s2, n2 = run () in
  Alcotest.(check bool) "both intact" true (ok1 && ok2);
  Alcotest.(check bool) "identical finish instant" true (t1 = t2);
  Alcotest.(check bool) "identical fault stats" true (s1 = s2);
  Alcotest.(check bool) "identical transport stats" true (n1 = n2)

(* ------------------------------------------------------------------ *)
(* Credit-based flow control against the fault plane: a reliable
   vchannel over one faulty TCP segment. *)

let vc_world ?credits ?(mtu = 2048) ~seed () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let session = Madeleine.Session.create engine in
  let channel =
    Madeleine.Channel.create session
      (Madeleine.Pmm_tcp.driver (function 0 -> s0 | _ -> s1))
      ~ranks:[ 0; 1 ] ()
  in
  let vc =
    Madeleine.Vchannel.create session ~mtu ?credits ~faults [ channel ]
  in
  (engine, vc)

let test_paused_receiver_blocks_sender () =
  (* The receiver consumes nothing for a long while: with a 2-packet
     credit window the sender must BLOCK (not drop, not buffer without
     bound) after two packets, then resume losslessly once the receiver
     starts unpacking. *)
  let module Vc = Madeleine.Vchannel in
  let credits = 2 and mtu = 2048 in
  let engine, vc = vc_world ~credits ~mtu ~seed:21L () in
  let size = 8192 and messages = 4 in
  let intact = ref true in
  Engine.spawn engine ~name:"sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
        Vc.pack oc (payload size (Int64.of_int (500 + m)));
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"paused-receiver" (fun () ->
      Engine.sleep (Time.us 20_000.0);
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload size (Int64.of_int (500 + m)))) then
          intact := false
      done);
  Engine.run engine;
  Alcotest.(check bool) "delivery intact after the pause" true !intact;
  (match Vc.credit_stats vc with
  | None -> Alcotest.fail "credit plane not armed"
  | Some cs ->
      Alcotest.(check bool)
        "sender ran out of credits and blocked" true (cs.Vc.stalls > 0);
      Alcotest.(check bool) "receiver granted credits" true (cs.Vc.grants > 0));
  List.iter
    (fun q ->
      if q.Vc.q_point = "assembler_bytes" then
        Alcotest.(check bool)
          (Printf.sprintf "assembler stayed under credits*mtu (peak %d)"
             q.Vc.q_peak)
          true
          (q.Vc.q_peak <= credits * mtu))
    (Vc.queue_stats vc)

let test_unacked_log_trimmed_by_acks () =
  (* Regression: the origin's re-emission log must be trimmed as
     cumulative acks arrive, so a long flow's peak stays under the cap
     rather than growing with the stream. *)
  let module Vc = Madeleine.Vchannel in
  let mtu = 1024 in
  let engine, vc = vc_world ~mtu ~seed:23L () in
  let size = 4096 and messages = 50 in
  let intact = ref true in
  Engine.spawn engine ~name:"sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
        Vc.pack oc (payload size (Int64.of_int (700 + m)));
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"receiver" (fun () ->
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload size (Int64.of_int (700 + m)))) then
          intact := false
      done);
  Engine.run engine;
  Alcotest.(check bool) "long flow intact" true !intact;
  let cap = Madeleine.Config.default_unacked_window in
  let seen = ref false in
  List.iter
    (fun q ->
      if q.Vc.q_point = "unacked_packets" && q.Vc.q_node = 0 then begin
        seen := true;
        Alcotest.(check bool)
          (Printf.sprintf "unacked log peak %d <= cap %d (stream is %d pkts)"
             q.Vc.q_peak cap
             (messages * size / mtu))
          true
          (q.Vc.q_peak <= cap)
      end)
    (Vc.queue_stats vc);
  Alcotest.(check bool) "origin unacked log was instrumented" true !seen

(* The reliability plane driven by hand across the 16-bit sequence
   wrap, through the hooks the vchannel core calls: [seal] numbers and
   logs at the origin, [deliver] runs the receiver's sequence check and
   ships a cumulative ack, [on_ack] trims the origin's log. The core
   below ships nothing: acks land in a queue, so each one can be
   applied, reordered or replayed at will. *)
let test_sequence_wrap () =
  let module R = Madeleine.Reliability in
  let module G = Madeleine.Generic_tm in
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:1L in
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let session = Madeleine.Session.create engine in
  let channel =
    Madeleine.Channel.create session
      (Madeleine.Pmm_tcp.driver (function 0 -> s0 | _ -> s1))
      ~ranks:[ 0; 1 ] ()
  in
  let acks = Queue.create () in
  let rel =
    R.create ~unacked_cap:8
      {
        R.engine;
        patience = Time.ms 1.0;
        routing =
          Madeleine.Routing.create ~n:2 [ (channel, [ 0; 1 ]) ]
            ~down:(fun _ _ -> false);
        ranks = [ 0; 1 ];
        send = (fun ~at:_ _ _ _ -> ());
        ship_detached = (fun ~kind:_ ~at:_ header _ -> Queue.push header acks);
        emission_lock = (fun ~src:_ ~dst:_ -> Marcel.Mutex.create ());
        reroute = ignore;
        relative = (fun () -> false);
        after_crash = ignore;
        after_verdict = (fun ~me:_ _ _ -> ());
        health = ignore;
        credit_crash = (fun _ () -> ());
      }
      faults
  in
  let payload = Bytes.make 8 'w' in
  let seal () =
    rel.R.seal (G.header ~origin:0 ~final_dst:1 ~payload_len:8) payload
  in
  let accepted = ref 0 in
  let deliver header =
    rel.R.deliver ~me:1 header (fun () -> incr accepted);
    match Queue.take_opt acks with
    | Some ack -> ack
    | None -> Alcotest.failf "no ack after packet %#x" header.G.seq
  in
  let flow () =
    List.find
      (fun f -> f.R.Stats.flow_src = 0 && f.R.Stats.flow_dst = 1)
      (rel.R.flows ())
  in
  let unacked () = (flow ()).R.Stats.unacked in
  let dup_drops () = (Option.get (rel.R.stats ())).R.Stats.dup_drops in
  (* In-order traffic up to the edge of the sequence space: every ack
     trims the one packet it answers. *)
  for i = 0 to 0xfffd do
    let header = seal () in
    if header.G.seq <> i then
      Alcotest.failf "packet %d numbered %d" i header.G.seq;
    let ack = deliver header in
    if ack.G.seq <> i then Alcotest.failf "ack for %d carries %d" i ack.G.seq;
    rel.R.on_ack ack;
    if unacked () <> 0 then
      Alcotest.failf "ack %d left the log at %d" i (unacked ())
  done;
  (* Four packets across the wrap, all in the log at once. *)
  let across = List.init 4 (fun _ -> seal ()) in
  Alcotest.(check (list int)) "numbering wraps" [ 0xfffe; 0xffff; 0; 1 ]
    (List.map (fun h -> h.G.seq) across);
  Alcotest.(check int) "four packets unacked" 4 (unacked ());
  let a_fffe, a_ffff, a_0, a_1 =
    match List.map deliver across with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  Alcotest.(check int) "receiver accepts 0 after 0xffff" (0xfffe + 4) !accepted;
  Alcotest.(check (list int)) "one ack per accepted packet, 0xffff included"
    [ 0xfffe; 0xffff; 0; 1 ]
    (List.map (fun h -> h.G.seq) [ a_fffe; a_ffff; a_0; a_1 ]);
  (* The receiver drops a duplicate of 0 and of 0xffff after the wrap. *)
  ignore (deliver (List.nth across 2));
  ignore (deliver (List.nth across 1));
  Alcotest.(check int) "duplicates after the wrap dropped" 2 (dup_drops ());
  Alcotest.(check int) "duplicates not accepted" (0xfffe + 4) !accepted;
  Alcotest.(check (pair int int)) "cursor and journal count past the wrap"
    (0xfffe + 4, 0xfffe + 4)
    ((flow ()).R.Stats.sent, (flow ()).R.Stats.delivered);
  (* In-order acks trim one packet each, across the wrap too. *)
  rel.R.on_ack a_fffe;
  Alcotest.(check int) "ack 0xfffe trims one" 3 (unacked ());
  rel.R.on_ack a_ffff;
  Alcotest.(check int) "ack 0xffff trims one" 2 (unacked ());
  (* Ack 1 overtakes ack 0: it trims cumulatively, and the late ack 0,
     for a packet already trimmed, changes nothing. *)
  rel.R.on_ack a_1;
  Alcotest.(check int) "ack 1 trims 0 and 1" 0 (unacked ());
  rel.R.on_ack a_0;
  Alcotest.(check int) "late ack 0 is harmless" 0 (unacked ());
  (* Stale acks from before the wrap never remove an unacked entry. *)
  let fresh = List.init 3 (fun _ -> seal ()) in
  Alcotest.(check (list int)) "numbering continues" [ 2; 3; 4 ]
    (List.map (fun h -> h.G.seq) fresh);
  List.iter
    (fun stale ->
      rel.R.on_ack stale;
      Alcotest.(check int)
        (Printf.sprintf "stale ack %#x keeps the log" stale.G.seq)
        3 (unacked ()))
    [ a_fffe; a_ffff; a_0; a_1; { a_1 with G.seq = 0x8003 } ];
  rel.R.on_ack (deliver (List.hd fresh));
  Alcotest.(check int) "ack 2 trims one" 2 (unacked ())

(* ------------------------------------------------------------------ *)
(* Partitions: first-class directional cuts over rank sets, driving
   frame verdicts, heartbeats and link_up consistently. *)

let test_partition_observables () =
  let w = faulty_world () in
  Faults.partition w.faults ~fabric:"eth" [ 0 ] [ 1 ];
  Alcotest.(check bool) "cut 0->1" true
    (Faults.partitioned w.faults ~fabric:"eth" ~src:0 ~dst:1);
  Alcotest.(check bool) "cut 1->0" true
    (Faults.partitioned w.faults ~fabric:"eth" ~src:1 ~dst:0);
  Alcotest.(check bool) "link reported down across the cut" false
    (Faults.link_up w.faults ~fabric:"eth" ~node:0);
  Alcotest.(check bool) "heartbeat suppressed" false
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:0 ~dst:1 ());
  (match
     Faults.frame_verdict w.faults ~fabric:"eth" ~src:0 ~dst:1
   with
  | Faults.Drop -> ()
  | _ -> Alcotest.fail "expected Drop across the cut");
  Faults.heal w.faults ~fabric:"eth";
  Alcotest.(check bool) "heartbeat restored after heal" true
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:0 ~dst:1 ());
  Alcotest.(check bool) "link back up after heal" true
    (Faults.link_up w.faults ~fabric:"eth" ~node:0);
  let st = Faults.stats w.faults in
  Alcotest.(check int) "one partition recorded" 1 st.Faults.partitions;
  Alcotest.(check int) "one heal recorded" 1 st.Faults.heals;
  Alcotest.(check bool) "cut frames counted" true (st.Faults.frames_cut >= 1)

let test_partition_oneway () =
  let w = faulty_world () in
  Faults.partition w.faults ~fabric:"eth" ~oneway:true [ 0 ] [ 1 ];
  Alcotest.(check bool) "0->1 cut" true
    (Faults.partitioned w.faults ~fabric:"eth" ~src:0 ~dst:1);
  Alcotest.(check bool) "1->0 still open" false
    (Faults.partitioned w.faults ~fabric:"eth" ~src:1 ~dst:0);
  Alcotest.(check bool) "heartbeat 0->1 lost" false
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:0 ~dst:1 ());
  Alcotest.(check bool) "heartbeat 1->0 delivered" true
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:1 ~dst:0 ())

let test_partition_validation () =
  let w = faulty_world () in
  (match Faults.partition w.faults ~fabric:"eth" [] [ 1 ] with
  | () -> Alcotest.fail "empty side accepted"
  | exception Invalid_argument _ -> ());
  match Faults.partition w.faults ~fabric:"eth" [ 0; 1 ] [ 1 ] with
  | () -> Alcotest.fail "overlapping sides accepted"
  | exception Invalid_argument _ -> ()

(* Both range comparisons are false for NaN, so the rate checks are
   written to fail it. *)
let test_nan_rates_rejected () =
  let faults = Faults.create (Engine.create ()) ~seed:1L in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s: NaN accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "set_drop" (fun () ->
      Faults.set_drop faults ~fabric:"eth" ~node:0 ~rate:Float.nan);
  rejects "set_corrupt" (fun () ->
      Faults.set_corrupt faults ~fabric:"eth" ~node:0 ~rate:Float.nan);
  rejects "slow_receiver" (fun () ->
      Faults.slow_receiver faults ~fabric:"eth" ~node:0 ~mb_per_s:Float.nan)

let test_partition_heal_revives_dead_tcp () =
  (* A cut long enough for the retransmitter to exhaust max_retries
     declares the connection dead — and since nobody's crash epoch
     moved, the session-resync path alone would never revive it. The
     heal hook must bring the session back and later sends complete. *)
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:7L in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net ~max_retries:3 engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let c0, c1 = Tcpnet.socketpair s0 s1 in
  let d1 = payload 2048 41L and d2 = payload 2048 42L in
  let died = ref false and intact = ref [] in
  Engine.spawn engine ~name:"cutter" (fun () ->
      Engine.sleep (Time.us 500.0);
      Faults.partition faults ~fabric:"eth" [ 0 ] [ 1 ];
      Engine.sleep (Time.us 300_000.0);
      Faults.heal faults ~fabric:"eth");
  Engine.spawn engine ~name:"send" (fun () ->
      Tcpnet.send c0 d1;
      Engine.sleep (Time.us 1_000.0);
      (* Queued into the open cut: the retransmitter gives up on it and
         the heal-time session reset discards it — the sender must
         re-offer it on the fresh session. *)
      (try Tcpnet.send c0 d2 with Tcpnet.Timeout _ -> ());
      Engine.sleep (Time.us 250_000.0);
      died := Tcpnet.is_dead c0;
      let rec resend () =
        match Tcpnet.send c0 d2 with
        | () -> ()
        | exception Tcpnet.Timeout _ ->
            Engine.sleep (Time.us 20_000.0);
            resend ()
      in
      resend ());
  Engine.spawn engine ~name:"recv" (fun () ->
      List.iter
        (fun d ->
          let sink = Bytes.create 2048 in
          (* A receiver blocked on a connection that dies is woken with
             the terminal error; it re-enters once the session revives. *)
          let rec rerecv () =
            match Tcpnet.recv c1 sink ~off:0 ~len:2048 with
            | () -> ()
            | exception Tcpnet.Timeout _ ->
                Engine.sleep (Time.us 20_000.0);
                rerecv ()
          in
          rerecv ();
          intact := Bytes.equal sink d :: !intact)
        [ d1; d2 ]);
  Engine.run engine;
  Alcotest.(check bool) "connection was declared dead mid-cut" true !died;
  Alcotest.(check (list bool))
    "both messages intact across death and heal" [ true; true ] !intact;
  let st = Faults.stats faults in
  Alcotest.(check int) "one partition" 1 st.Faults.partitions;
  Alcotest.(check int) "one heal" 1 st.Faults.heals;
  Alcotest.(check bool) "the cut consumed frames" true (st.Faults.frames_cut > 0)

(* The clusterfile syntax drives the same plane. *)
let faulty_cfg =
  {|
faults seed=11
network eth type=tcp
node a nets=eth
node b nets=eth
channel c net=eth nodes=a,b connect_timeout_us=800
fault drop net=eth node=a rate=0.02
fault drop net=eth node=b rate=0.02
|}

let test_clusterfile_fault_directives () =
  let module Cf = Clusterfile in
  let module Mad = Madeleine.Api in
  let t = Cf.load faulty_cfg in
  Alcotest.(check bool) "plane declared" true (Cf.faults t <> None);
  let chan = Cf.channel t "c" in
  let data = payload 16384 5L in
  let ok = ref false in
  Engine.spawn (Cf.engine t) ~name:"s" (fun () ->
      let oc =
        Mad.begin_packing (Madeleine.Channel.endpoint chan ~rank:0) ~remote:1
      in
      Mad.pack oc data;
      Mad.end_packing oc);
  Engine.spawn (Cf.engine t) ~name:"r" (fun () ->
      let sink = Bytes.create 16384 in
      let ic =
        Mad.begin_unpacking_from
          (Madeleine.Channel.endpoint chan ~rank:1)
          ~remote:0
      in
      Mad.unpack ic sink;
      Mad.end_unpacking ic;
      ok := Bytes.equal sink data);
  Engine.run (Cf.engine t);
  Alcotest.(check bool) "message intact over faulty cluster" true !ok

let test_clusterfile_fault_needs_plane () =
  let module Cf = Clusterfile in
  match
    Cf.load
      "network eth type=tcp\nnode a nets=eth\n\
       fault drop net=eth node=a rate=0.1"
  with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Cf.Parse_error (line, _) ->
      Alcotest.(check int) "error on the fault line" 3 line

let () =
  Alcotest.run "faults"
    [
      ( "plane",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc_known_vector;
          Alcotest.test_case "crc32 every alignment" `Quick
            test_crc_every_alignment;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference;
          Alcotest.test_case "crc32 out of bounds rejected" `Quick
            test_crc_out_of_bounds;
          Alcotest.test_case "zero-rate plane is inert" `Quick
            test_zero_rate_plane_changes_nothing;
          Alcotest.test_case "seeded run reproducible" `Quick
            test_seeded_run_is_reproducible;
          Alcotest.test_case "NaN rates rejected" `Quick
            test_nan_rates_rejected;
        ] );
      ( "reliable-tcp",
        [
          Alcotest.test_case "drop: retransmit, intact" `Quick
            test_drop_retransmit_intact;
          Alcotest.test_case "corruption: CRC catches it" `Quick
            test_corruption_detected_and_recovered;
          Alcotest.test_case "flap: delayed, intact" `Quick
            test_flap_delays_but_completes;
          Alcotest.test_case "PCI stall slows transfer" `Quick
            test_pci_stall_slows_transfer;
          Alcotest.test_case "connect timeout on crashed peer" `Quick
            test_connect_timeout_on_crashed_peer;
          Alcotest.test_case "recv timeout" `Quick test_recv_timeout;
          Alcotest.test_case "window: reorder/dup/loss" `Quick
            test_window_survives_reorder_dup_loss;
          Alcotest.test_case "max_retries: give up, attempts" `Quick
            test_max_retries_gives_up_with_attempt_count;
          Alcotest.test_case "one copy: fault-free send" `Quick
            test_one_copy_fault_free;
          Alcotest.test_case "one copy: reliable send" `Quick
            test_one_copy_reliable;
          Alcotest.test_case "send_group rejects bad slices" `Quick
            test_send_group_rejects_bad_slice;
          Alcotest.test_case "selective repeat: one hole" `Quick
            test_sr_one_hole;
          Alcotest.test_case "selective repeat: two holes" `Quick
            test_sr_two_holes;
          Alcotest.test_case "selective repeat: tail loss" `Quick
            test_sr_tail_loss;
          Alcotest.test_case "selective repeat: partial ack" `Quick
            test_sr_partial_ack;
          Alcotest.test_case "selective repeat: hole lost twice" `Quick
            test_sr_hole_lost_twice;
          Alcotest.test_case "selective repeat: early retransmit" `Quick
            test_sr_early_retransmit;
          Alcotest.test_case "selective repeat: reset drops held" `Quick
            test_sr_reset_discards_held;
          Alcotest.test_case "MSS: 64 kB send is 45 frames" `Quick
            test_mss_segments_inert;
          Alcotest.test_case "MSS: one lost segment, one resend" `Quick
            test_mss_one_lost_segment;
          Alcotest.test_case "MSS: 64 kB at 1% never times out" `Quick
            test_mss_64k_lossy_never_times_out;
          Alcotest.test_case "RACK: lost resend, new data behind" `Quick
            test_rack_lost_resend;
          Alcotest.test_case "TLP: inert plane sends no probe" `Quick
            test_inert_sends_no_probe;
          Alcotest.test_case "RACK: delay inside the reorder window" `Quick
            test_rack_reorder_window;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "cut drives verdict/heartbeat/link_up" `Quick
            test_partition_observables;
          Alcotest.test_case "asymmetric cut is one-way" `Quick
            test_partition_oneway;
          Alcotest.test_case "malformed cuts rejected" `Quick
            test_partition_validation;
          Alcotest.test_case "heal revives a dead connection" `Quick
            test_partition_heal_revives_dead_tcp;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "paused receiver blocks sender" `Quick
            test_paused_receiver_blocks_sender;
          Alcotest.test_case "unacked log trimmed by acks" `Quick
            test_unacked_log_trimmed_by_acks;
          Alcotest.test_case "16-bit sequence wrap" `Quick test_sequence_wrap;
        ] );
      ( "clusterfile",
        [
          Alcotest.test_case "fault directives" `Quick
            test_clusterfile_fault_directives;
          Alcotest.test_case "fault needs faults decl" `Quick
            test_clusterfile_fault_needs_plane;
        ] );
    ]
