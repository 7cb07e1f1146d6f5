(* Tests for the simulated network interfaces: BIP, SISCI, TCP, VIA, SBP. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams

let payload n seed =
  let rng = Simnet.Rng.create ~seed in
  Simnet.Rng.bytes rng n

(* A two-node world on one fabric. *)
let world link =
  let e = Engine.create () in
  let fab = Fabric.create e ~name:"net" ~link in
  let n0 = Node.create e ~name:"n0" ~id:0 in
  let n1 = Node.create e ~name:"n1" ~id:1 in
  Fabric.attach fab n0;
  Fabric.attach fab n1;
  (e, fab, n0, n1)

let in_range ?(lo = 0.0) ~hi what v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2fus in [%.2f, %.2f]" what v lo hi)
    true
    (v >= lo && v <= hi)

(* ------------------------------------------------------------------ *)
(* BIP *)

let bip_world () =
  let e, fab, n0, n1 = world Netparams.myrinet in
  let net = Bip.make_net e fab in
  (e, Bip.attach net n0, Bip.attach net n1)

let test_bip_short_roundtrip () =
  let e, b0, b1 = bip_world () in
  let data = payload 100 1L in
  let got = Bytes.create 100 in
  Engine.spawn e ~name:"sender" (fun () -> Bip.send b0 ~dst:1 ~tag:0 data);
  Engine.spawn e ~name:"receiver" (fun () ->
      let len = Bip.recv b1 ~src:0 ~tag:0 got in
      Alcotest.(check int) "length" 100 len);
  Engine.run e;
  Alcotest.(check bytes) "content" data got

(* Slices on both sides: a short and a long message sent from the
   middle of a buffer land at an offset of the receiver's buffer, the
   bytes around the receive slice untouched; slices outside the buffer
   are rejected on both sides. *)
let test_bip_slices () =
  let e, b0, b1 = bip_world () in
  let src = payload 300_000 11L in
  let short_at = 17 and long_at = 1_000 in
  let short_len = 100 and long_len = 200_000 in
  let short_got = Bytes.make 300 '.' and long_got = Bytes.make 250_000 '.' in
  let bad what f =
    Alcotest.check_raises what (Invalid_argument (what ^ ": slice out of bounds"))
      (fun () -> ignore (f ()))
  in
  Engine.spawn e ~name:"sender" (fun () ->
      bad "Bip.send" (fun () -> Bip.send b0 ~dst:1 ~tag:0 ~off:(-1) src);
      bad "Bip.send" (fun () -> Bip.send b0 ~dst:1 ~tag:0 ~len:(-1) src);
      bad "Bip.send" (fun () ->
          Bip.send b0 ~dst:1 ~tag:0 ~off:1 ~len:300_000 src);
      bad "Bip.send" (fun () -> Bip.send b0 ~dst:1 ~tag:0 ~off:300_001 src);
      Bip.send b0 ~dst:1 ~tag:0 ~off:short_at ~len:short_len src;
      Bip.send b0 ~dst:1 ~tag:1 ~off:long_at ~len:long_len src);
  Engine.spawn e ~name:"receiver" (fun () ->
      bad "Bip.recv" (fun () -> Bip.recv b1 ~src:0 ~tag:0 ~off:(-1) short_got);
      bad "Bip.recv" (fun () ->
          Bip.recv b1 ~src:0 ~tag:0 ~off:200 ~len:101 short_got);
      Alcotest.(check int) "short length" short_len
        (Bip.recv b1 ~src:0 ~tag:0 ~off:50 ~len:200 short_got);
      Alcotest.(check int) "long length" long_len
        (Bip.recv b1 ~src:0 ~tag:1 ~off:3 ~len:long_len long_got));
  Engine.run e;
  let expect_around dst ~off ~len ~from =
    let n = Bytes.length dst in
    Alcotest.(check bytes) "slice content" (Bytes.sub src from len)
      (Bytes.sub dst off len);
    Alcotest.(check string) "before the slice" (String.make off '.')
      (Bytes.sub_string dst 0 off);
    Alcotest.(check string) "after the slice"
      (String.make (n - off - len) '.')
      (Bytes.sub_string dst (off + len) (n - off - len))
  in
  expect_around short_got ~off:50 ~len:short_len ~from:short_at;
  expect_around long_got ~off:3 ~len:long_len ~from:long_at

let test_bip_short_latency () =
  (* Raw BIP one-way small-message latency should be near 5 us. *)
  let e, b0, b1 = bip_world () in
  let arrival = ref Time.zero in
  Engine.spawn e ~name:"sender" (fun () ->
      Bip.send b0 ~dst:1 ~tag:0 (Bytes.create 4));
  Engine.spawn e ~name:"receiver" (fun () ->
      ignore (Bip.recv b1 ~src:0 ~tag:0 (Bytes.create 4));
      arrival := Engine.now e);
  Engine.run e;
  in_range ~lo:3.0 ~hi:7.0 "bip short latency" (Time.to_us !arrival)

let test_bip_long_zero_copy_delivery () =
  let e, b0, b1 = bip_world () in
  let n = 100_000 in
  let data = payload n 2L in
  let got = Bytes.create n in
  Engine.spawn e ~name:"sender" (fun () -> Bip.send b0 ~dst:1 ~tag:3 data);
  Engine.spawn e ~name:"receiver" (fun () ->
      let len = Bip.recv b1 ~src:0 ~tag:3 got in
      Alcotest.(check int) "length" n len);
  Engine.run e;
  Alcotest.(check bytes) "content" data got

let test_bip_long_bandwidth () =
  (* 1 MB long message: raw BIP tops out near 126 MB/s. *)
  let e, b0, b1 = bip_world () in
  let n = 1_000_000 in
  let finish = ref Time.zero in
  Engine.spawn e ~name:"sender" (fun () ->
      Bip.send b0 ~dst:1 ~tag:0 (Bytes.create n));
  Engine.spawn e ~name:"receiver" (fun () ->
      ignore (Bip.recv b1 ~src:0 ~tag:0 (Bytes.create n));
      finish := Engine.now e);
  Engine.run e;
  let bw = Time.rate_mb_s ~bytes_count:n !finish in
  in_range ~lo:110.0 ~hi:130.0 "bip long bandwidth" bw

let test_bip_long_is_rendezvous () =
  (* The sender must not complete before the receiver posts. *)
  let e, b0, b1 = bip_world () in
  let n = 4096 in
  let sender_done = ref Time.zero in
  Engine.spawn e ~name:"sender" (fun () ->
      Bip.send b0 ~dst:1 ~tag:0 (Bytes.create n);
      sender_done := Engine.now e);
  Engine.spawn e ~name:"receiver" (fun () ->
      Engine.sleep (Time.ms 1.0);
      ignore (Bip.recv b1 ~src:0 ~tag:0 (Bytes.create n)));
  Engine.run e;
  Alcotest.(check bool)
    "sender blocked on rendezvous" true
    (Time.compare !sender_done (Time.ms 1.0) >= 0)

let test_bip_short_is_not_rendezvous () =
  (* Short messages complete at the sender without any receiver action. *)
  let e, b0, b1 = bip_world () in
  let sender_done = ref Time.zero in
  Engine.spawn e ~name:"sender" (fun () ->
      Bip.send b0 ~dst:1 ~tag:0 (Bytes.create 64);
      sender_done := Engine.now e);
  Engine.spawn e ~name:"receiver" (fun () ->
      Engine.sleep (Time.ms 5.0);
      ignore (Bip.recv b1 ~src:0 ~tag:0 (Bytes.create 64)));
  Engine.run e;
  Alcotest.(check bool)
    "sender completed early" true
    (Time.compare !sender_done (Time.us 100.0) < 0)

let test_bip_credit_exhaustion_blocks () =
  (* With no receiver consuming, only [bip_short_credits] sends fly. *)
  let e, b0, b1 = bip_world () in
  let sent = ref 0 in
  Engine.spawn e ~daemon:true ~name:"sender" (fun () ->
      for _ = 1 to Netparams.bip_short_credits + 5 do
        Bip.send b0 ~dst:1 ~tag:0 (Bytes.create 16);
        incr sent
      done);
  Engine.run e;
  Alcotest.(check int) "window filled" Netparams.bip_short_credits !sent;
  (* Consuming one message frees one credit. *)
  Engine.spawn e ~name:"receiver" (fun () ->
      ignore (Bip.recv b1 ~src:0 ~tag:0 (Bytes.create 16)));
  Engine.run e;
  Alcotest.(check int) "one more flew" (Netparams.bip_short_credits + 1) !sent

let test_bip_fifo_order () =
  let e, b0, b1 = bip_world () in
  let seen = ref [] in
  Engine.spawn e ~name:"sender" (fun () ->
      for i = 1 to 5 do
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int i);
        Bip.send b0 ~dst:1 ~tag:0 b
      done);
  Engine.spawn e ~name:"receiver" (fun () ->
      for _ = 1 to 5 do
        let b = Bytes.create 8 in
        ignore (Bip.recv b1 ~src:0 ~tag:0 b);
        seen := Int64.to_int (Bytes.get_int64_le b 0) :: !seen
      done);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !seen)

let test_bip_tags_isolate () =
  let e, b0, b1 = bip_world () in
  Engine.spawn e ~name:"sender" (fun () ->
      Bip.send b0 ~dst:1 ~tag:7 (Bytes.make 4 'a');
      Bip.send b0 ~dst:1 ~tag:9 (Bytes.make 4 'b'));
  Engine.spawn e ~name:"receiver" (fun () ->
      (* Receive tag 9 first even though tag 7 was sent first. *)
      let b9 = Bytes.create 4 and b7 = Bytes.create 4 in
      ignore (Bip.recv b1 ~src:0 ~tag:9 b9);
      ignore (Bip.recv b1 ~src:0 ~tag:7 b7);
      Alcotest.(check bytes) "tag9" (Bytes.make 4 'b') b9;
      Alcotest.(check bytes) "tag7" (Bytes.make 4 'a') b7);
  Engine.run e

let test_bip_probe_and_hook () =
  let e, b0, b1 = bip_world () in
  let hook_fired = ref false in
  Bip.set_data_hook b1 (fun () -> hook_fired := true);
  Alcotest.(check bool) "probe empty" false (Bip.probe b1 ~src:0 ~tag:0);
  Engine.spawn e ~name:"sender" (fun () ->
      Bip.send b0 ~dst:1 ~tag:0 (Bytes.create 4));
  Engine.run e;
  Alcotest.(check bool) "hook" true !hook_fired;
  Alcotest.(check bool) "probe full" true (Bip.probe b1 ~src:0 ~tag:0)

let test_bip_send_to_self_rejected () =
  let e, b0, _ = bip_world () in
  Engine.spawn e ~name:"sender" (fun () ->
      Alcotest.check_raises "self" (Invalid_argument "Bip.send: dst is self")
        (fun () -> Bip.send b0 ~dst:0 ~tag:0 (Bytes.create 4)));
  Engine.run e

(* ------------------------------------------------------------------ *)
(* SISCI *)

let sisci_world () =
  let e, fab, n0, n1 = world Netparams.sci in
  let net = Sisci.make_net e fab in
  (e, Sisci.attach net n0, Sisci.attach net n1)

let test_sisci_pio_write_visible () =
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:4096 in
  let data = payload 512 3L in
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Sisci.pio_write rs ~off:128 data);
  Engine.run e;
  Alcotest.(check bytes) "content" data (Sisci.read seg ~off:128 ~len:512)

let test_sisci_poll_wakes_on_write () =
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:64 in
  let woke_at = ref Time.zero in
  Engine.spawn e ~name:"poller" (fun () ->
      Sisci.wait_until seg (fun seg -> Bytes.get (Sisci.read seg ~off:0 ~len:1) 0 = '\001');
      woke_at := Engine.now e);
  Engine.spawn e ~name:"writer" (fun () ->
      Engine.sleep (Time.us 100.0);
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Sisci.pio_write rs ~off:0 (Bytes.make 1 '\001'));
  Engine.run e;
  Alcotest.(check bool)
    "woke after write" true
    (Time.compare !woke_at (Time.us 100.0) > 0)

let test_sisci_small_write_latency () =
  (* Raw SISCI: a small remote write becomes visible in roughly 1-3.5 us;
     the writing CPU itself is released earlier (posted writes). *)
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:64 in
  let issued_at = ref Time.zero and visible_at = ref Time.zero in
  Engine.spawn e ~name:"poller" (fun () ->
      Sisci.wait_until seg (fun seg ->
          Bytes.get (Sisci.read seg ~off:0 ~len:1) 0 <> '\000');
      visible_at := Engine.now e);
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Sisci.pio_write rs ~off:0 (Bytes.make 8 '\001');
      issued_at := Engine.now e);
  Engine.run e;
  in_range ~lo:0.3 ~hi:1.5 "sisci pio issue" (Time.to_us !issued_at);
  in_range ~lo:1.0 ~hi:3.5 "sisci pio visibility" (Time.to_us !visible_at)

let test_sisci_pio_bandwidth () =
  (* Large PIO writes approach the write-combining cap (~88 MB/s). *)
  let e, s0, s1 = sisci_world () in
  let n = 1 lsl 20 in
  let _seg = Sisci.create_segment s1 ~segment_id:1 ~size:n in
  let done_at = ref Time.zero in
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Sisci.pio_write rs ~off:0 (Bytes.create n);
      done_at := Engine.now e);
  Engine.run e;
  let bw = Time.rate_mb_s ~bytes_count:n !done_at in
  in_range ~lo:78.0 ~hi:88.0 "sisci pio bandwidth" bw

let test_sisci_dma_bandwidth_is_poor () =
  (* The D310 DMA engine: 35 MB/s, per the paper. *)
  let e, s0, s1 = sisci_world () in
  let n = 1 lsl 20 in
  let _seg = Sisci.create_segment s1 ~segment_id:1 ~size:n in
  let done_at = ref Time.zero in
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Sisci.dma_write rs ~off:0 (Bytes.create n);
      done_at := Engine.now e);
  Engine.run e;
  let bw = Time.rate_mb_s ~bytes_count:n !done_at in
  in_range ~lo:30.0 ~hi:36.0 "sisci dma bandwidth" bw

let test_sisci_write_order_preserved () =
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:16 in
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Sisci.pio_write rs ~off:0 (Bytes.make 4 'x');
      Sisci.pio_write rs ~off:0 (Bytes.make 4 'y'));
  Engine.run e;
  Alcotest.(check bytes) "last write wins" (Bytes.make 4 'y')
    (Sisci.read seg ~off:0 ~len:4)

let test_sisci_bounds_checked () =
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:16 in
  Alcotest.check_raises "read oob" (Invalid_argument "Sisci.read: out of segment bounds")
    (fun () -> ignore (Sisci.read seg ~off:10 ~len:10));
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      Alcotest.check_raises "write oob"
        (Invalid_argument "Sisci.pio_write: out of segment bounds") (fun () ->
          Sisci.pio_write rs ~off:12 (Bytes.create 8)));
  Engine.run e

let test_sisci_wait_modes () =
  (* Interrupt detection costs an order of magnitude more than polling;
     the adaptive mode pays polling for prompt data and bounds the spin
     time for late data. *)
  let wake_cost mode ~delay_us =
    let e, s0, s1 = sisci_world () in
    let seg = Sisci.create_segment s1 ~segment_id:1 ~size:64 in
    let arrival = ref Time.zero and woke = ref Time.zero in
    Engine.spawn e ~name:"poller" (fun () ->
        Sisci.wait_until ~mode seg (fun seg ->
            Bytes.get (Sisci.read seg ~off:0 ~len:1) 0 <> '\000');
        woke := Engine.now e);
    Engine.spawn e ~name:"writer" (fun () ->
        Engine.sleep (Time.us delay_us);
        let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
        Sisci.pio_write rs ~off:0 (Bytes.make 1 '\001');
        arrival := Engine.now e);
    Engine.run e;
    (Time.to_us (Time.diff !woke !arrival), Time.to_us (Sisci.polled_time s1))
  in
  let poll_cost, poll_spun = wake_cost Sisci.Poll ~delay_us:100.0 in
  let intr_cost, intr_spun = wake_cost Sisci.Interrupt ~delay_us:100.0 in
  in_range ~lo:0.2 ~hi:2.0 "poll wake cost" poll_cost;
  in_range ~lo:10.0 ~hi:14.0 "interrupt wake cost" intr_cost;
  in_range ~lo:99.0 ~hi:103.0 "poll mode spins the whole wait" poll_spun;
  Alcotest.(check (float 0.001)) "interrupt mode never spins" 0.0 intr_spun;
  (* Adaptive, data arrives within the window: behaves like polling. *)
  let a_fast_cost, a_fast_spun =
    wake_cost (Sisci.Adaptive (Time.us 50.0)) ~delay_us:10.0
  in
  in_range ~lo:0.2 ~hi:2.0 "adaptive hot = poll cost" a_fast_cost;
  in_range ~lo:9.0 ~hi:13.0 "adaptive hot spin" a_fast_spun;
  (* Adaptive, data late: interrupt cost, spin bounded by the window. *)
  let a_slow_cost, a_slow_spun =
    wake_cost (Sisci.Adaptive (Time.us 50.0)) ~delay_us:2000.0
  in
  in_range ~lo:10.0 ~hi:14.0 "adaptive cold = interrupt cost" a_slow_cost;
  in_range ~lo:49.0 ~hi:51.0 "adaptive cold spin bounded" a_slow_spun

(* Ranges whose end overflows [max_int]: [off + len] wraps negative,
   so each check must compare without adding. *)
let overflowing = [ (1, max_int); (max_int, 1) ]

let test_sisci_bounds_overflow () =
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:16 in
  let oob = Invalid_argument "Sisci.read: out of segment bounds" in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises "read" oob (fun () ->
          ignore (Sisci.read seg ~off ~len)))
    overflowing;
  Alcotest.check_raises "get"
    (Invalid_argument "Sisci.get: out of segment bounds") (fun () ->
      ignore (Sisci.get seg ~off:max_int));
  Alcotest.check_raises "set"
    (Invalid_argument "Sisci.set: out of segment bounds") (fun () ->
      Sisci.set seg ~off:max_int 'x');
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      let data = Bytes.create 8 in
      List.iter
        (fun (pos, len) ->
          Alcotest.check_raises "source range"
            (Invalid_argument "Sisci.remote_write: bad source range")
            (fun () -> Sisci.pio_write_sub rs ~off:0 data ~pos ~len);
          Alcotest.check_raises "register"
            (Invalid_argument "Sisci.register: bad range") (fun () ->
              ignore (Sisci.register s0 data ~pos ~len)))
        overflowing;
      Alcotest.check_raises "target range"
        (Invalid_argument "Sisci.pio_write: out of segment bounds") (fun () ->
          Sisci.pio_write rs ~off:max_int (Bytes.create 1));
      let region = Sisci.register s0 data ~pos:0 ~len:8 in
      List.iter
        (fun (pos, len) ->
          Alcotest.check_raises "rdma range"
            (Invalid_argument "Sisci.rdma_write_direct: range outside region")
            (fun () -> Sisci.rdma_write_direct rs ~off:0 region ~pos ~len))
        overflowing);
  Engine.run e

let test_sisci_connect_missing () =
  let e, s0, _s1 = sisci_world () in
  ignore e;
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Sisci.connect s0 ~node_id:1 ~segment_id:99))

let test_sisci_pio_dma_share_fifo () =
  (* A PIO write issued before a DMA write to the same peer must become
     visible first: both ride the same in-order SCI stream. *)
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:16384 in
  let order = ref [] in
  Engine.spawn e ~name:"watch" (fun () ->
      Sisci.wait_until seg (fun seg ->
          Bytes.get (Sisci.read seg ~off:0 ~len:1) 0 <> '\000');
      order := "pio" :: !order;
      Sisci.wait_until seg (fun seg ->
          Bytes.get (Sisci.read seg ~off:1 ~len:1) 0 <> '\000');
      order := "dma" :: !order);
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      (* Large PIO first, then a small DMA that would otherwise win. *)
      Sisci.pio_write rs ~off:16 (Bytes.create 8192);
      Sisci.pio_write rs ~off:0 (Bytes.make 1 '\001');
      Sisci.dma_write rs ~off:1 (Bytes.make 1 '\001'));
  Engine.run e;
  Alcotest.(check (list string)) "fifo across engines" [ "pio"; "dma" ]
    (List.rev !order)

(* The instants of one write, relative to its call: when the writer
   thread resumes and when the data lands in the remote segment. Pinned
   to the nanosecond, whatever number of engine events the sender loop
   takes. *)
let sisci_write_instants write len =
  let e, s0, s1 = sisci_world () in
  let seg = Sisci.create_segment s1 ~segment_id:1 ~size:(max 1 len) in
  let started = ref Time.zero and resumed = ref Time.zero in
  let landed = ref Time.zero in
  Sisci.set_data_hook seg (fun () -> landed := Engine.now e);
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      let go = write s0 rs (payload len 5L) in
      started := Engine.now e;
      go ();
      resumed := Engine.now e);
  Engine.run e;
  (Time.diff !resumed !started, Time.diff !landed !started)

let check_write_instants what ?(sizes = [ 0; 1; 512; 513; 1 lsl 20 ]) write
    expected =
  Alcotest.(check (list (pair int (pair int int))))
    (what ^ " (size, (resumed, landed)) ns")
    expected
    (List.map (fun len -> (len, sisci_write_instants write len)) sizes)

let test_sisci_pio_write_instants () =
  check_write_instants "pio"
    (fun _ rs data () -> Sisci.pio_write rs ~off:0 data)
    [
      (0, (550, 900));
      (1, (562, 926));
      (512, (6646, 13588));
      (513, (6658, 13596));
      (1048576, (12485158, 12492100));
    ]

let test_sisci_dma_write_instants () =
  check_write_instants "dma"
    (fun _ rs data () -> Sisci.dma_write rs ~off:0 data)
    [
      (0, (4000, 4350));
      (1, (4029, 4393));
      (512, (18629, 25571));
      (513, (18658, 25579));
      (1048576, (29964192, 29971134));
    ]

(* The registration happens before the clock starts; a zero-length
   RDMA write is rejected. *)
let test_sisci_rdma_write_instants () =
  check_write_instants "rdma" ~sizes:[ 1; 512; 513; 1 lsl 20 ]
    (fun s0 rs data ->
      let len = Bytes.length data in
      let region = Sisci.register s0 data ~pos:0 ~len in
      fun () -> Sisci.rdma_write_direct rs ~off:0 region ~pos:0 ~len)
    [
      (1, (4372, 4372));
      (512, (14974, 14974));
      (513, (14982, 14982));
      (1048576, (8268478, 8268478));
    ];
  let e, s0, s1 = sisci_world () in
  ignore (Sisci.create_segment s1 ~segment_id:1 ~size:16);
  Engine.spawn e ~name:"writer" (fun () ->
      let rs = Sisci.connect s0 ~node_id:1 ~segment_id:1 in
      let region = Sisci.register s0 (Bytes.create 8) ~pos:0 ~len:8 in
      Alcotest.check_raises "empty rdma"
        (Invalid_argument "Sisci.rdma_write_direct: range outside region")
        (fun () -> Sisci.rdma_write_direct rs ~off:0 region ~pos:0 ~len:0));
  Engine.run e

(* A BIP long send (rendezvous) with the receive posted first: the
   sender's resume instant and the receiver's completion, pinned like
   the SISCI writes above. 4096 B is one NIC chunk, 4097 B two. *)
let test_bip_long_send_instants () =
  let instants len =
    let e, b0, b1 = bip_world () in
    let resumed = ref Time.zero and received = ref Time.zero in
    Engine.spawn e ~name:"receiver" (fun () ->
        let got = Bip.recv b1 ~src:0 ~tag:0 (Bytes.create len) in
        Alcotest.(check int) "length" len got;
        received := Engine.now e);
    Engine.spawn e ~name:"sender" (fun () ->
        Bip.send b0 ~dst:1 ~tag:0 (payload len 6L);
        resumed := Engine.now e);
    Engine.run e;
    (len, (!resumed, !received))
  in
  Alcotest.(check (list (pair int (pair int int))))
    "(size, (sender resumed, received)) ns"
    [ (4096, (39852, 124204)); (4097, (39860, 124212)) ]
    (List.map instants [ 4096; 4097 ])

(* ------------------------------------------------------------------ *)
(* TCP *)

let tcp_world () =
  let e, fab, n0, n1 = world Netparams.fast_ethernet in
  let net = Tcpnet.make_net e fab in
  (e, Tcpnet.attach net n0, Tcpnet.attach net n1)

let test_tcp_roundtrip () =
  let e, t0, t1 = tcp_world () in
  Tcpnet.listen t1 ~port:80;
  let data = payload 5000 4L in
  let got = Bytes.create 5000 in
  Engine.spawn e ~name:"client" (fun () ->
      let c = Tcpnet.connect t0 ~node_id:1 ~port:80 in
      Tcpnet.send c data);
  Engine.spawn e ~name:"server" (fun () ->
      let c = Tcpnet.accept t1 ~port:80 in
      Tcpnet.recv c got ~off:0 ~len:5000);
  Engine.run e;
  Alcotest.(check bytes) "content" data got

let test_tcp_stream_reassembly () =
  (* Two sends, one recv spanning both: byte-stream semantics. *)
  let e, t0, t1 = tcp_world () in
  Tcpnet.listen t1 ~port:80;
  let got = Bytes.create 8 in
  Engine.spawn e ~name:"client" (fun () ->
      let c = Tcpnet.connect t0 ~node_id:1 ~port:80 in
      Tcpnet.send c (Bytes.of_string "abcd");
      Tcpnet.send c (Bytes.of_string "efgh"));
  Engine.spawn e ~name:"server" (fun () ->
      let c = Tcpnet.accept t1 ~port:80 in
      Tcpnet.recv c got ~off:0 ~len:8);
  Engine.run e;
  Alcotest.(check string) "content" "abcdefgh" (Bytes.to_string got)

let test_tcp_bandwidth () =
  let e, t0, t1 = tcp_world () in
  Tcpnet.listen t1 ~port:80;
  let n = 1_000_000 in
  let done_at = ref Time.zero and started_at = ref Time.zero in
  Engine.spawn e ~name:"client" (fun () ->
      let c = Tcpnet.connect t0 ~node_id:1 ~port:80 in
      started_at := Engine.now e;
      Tcpnet.send c (Bytes.create n));
  Engine.spawn e ~name:"server" (fun () ->
      let c = Tcpnet.accept t1 ~port:80 in
      Tcpnet.recv c (Bytes.create n) ~off:0 ~len:n;
      done_at := Engine.now e);
  Engine.run e;
  let bw =
    Time.rate_mb_s ~bytes_count:n (Time.diff !done_at !started_at)
  in
  in_range ~lo:10.0 ~hi:12.5 "tcp bandwidth" bw

let test_tcp_group_ops () =
  let e, t0, t1 = tcp_world () in
  Tcpnet.listen t1 ~port:80;
  let a = Bytes.create 3 and b = Bytes.create 5 in
  Engine.spawn e ~name:"client" (fun () ->
      let c = Tcpnet.connect t0 ~node_id:1 ~port:80 in
      Tcpnet.send_group c
        [ (Bytes.of_string "xyz", 0, 3); (Bytes.of_string "12345", 0, 5) ]);
  Engine.spawn e ~name:"server" (fun () ->
      let c = Tcpnet.accept t1 ~port:80 in
      Tcpnet.recv_group c [ (a, 0, 3); (b, 0, 5) ]);
  Engine.run e;
  Alcotest.(check string) "a" "xyz" (Bytes.to_string a);
  Alcotest.(check string) "b" "12345" (Bytes.to_string b)

let test_tcp_recv_group_across_sends () =
  (* A gathered receive spanning several sends still reassembles. *)
  let e, t0, t1 = tcp_world () in
  Tcpnet.listen t1 ~port:80;
  let a = Bytes.create 6 and b = Bytes.create 2 in
  Engine.spawn e ~name:"client" (fun () ->
      let c = Tcpnet.connect t0 ~node_id:1 ~port:80 in
      Tcpnet.send c (Bytes.of_string "abc");
      Tcpnet.send c (Bytes.of_string "defgh"));
  Engine.spawn e ~name:"server" (fun () ->
      let c = Tcpnet.accept t1 ~port:80 in
      Tcpnet.recv_group c [ (a, 0, 6); (b, 0, 2) ]);
  Engine.run e;
  Alcotest.(check string) "a" "abcdef" (Bytes.to_string a);
  Alcotest.(check string) "b" "gh" (Bytes.to_string b)

let test_tcp_connect_errors () =
  let e, t0, t1 = tcp_world () in
  ignore t1;
  Engine.spawn e ~name:"client" (fun () ->
      Alcotest.check_raises "not listening"
        (Invalid_argument "Tcpnet.connect: peer not listening") (fun () ->
          ignore (Tcpnet.connect t0 ~node_id:1 ~port:81));
      Alcotest.check_raises "unknown node"
        (Invalid_argument "Tcpnet.connect: unknown node") (fun () ->
          ignore (Tcpnet.connect t0 ~node_id:9 ~port:80)));
  Engine.run e

let test_tcp_recv_bounds_overflow () =
  let e, t0, t1 = tcp_world () in
  Tcpnet.listen t1 ~port:80;
  Engine.spawn e ~name:"client" (fun () ->
      ignore (Tcpnet.connect t0 ~node_id:1 ~port:80));
  Engine.spawn e ~name:"server" (fun () ->
      let c = Tcpnet.accept t1 ~port:80 in
      List.iter
        (fun (off, len) ->
          Alcotest.check_raises "recv"
            (Invalid_argument "Tcpnet.recv: out of bounds") (fun () ->
              Tcpnet.recv c (Bytes.create 8) ~off ~len))
        overflowing);
  Engine.run e

(* ------------------------------------------------------------------ *)
(* VIA *)

let via_world () =
  let e, fab, n0, n1 = world Netparams.fast_ethernet in
  let net = Via.make_net e fab in
  let v0 = Via.create_vi (Via.attach net n0) in
  let v1 = Via.create_vi (Via.attach net n1) in
  Via.vi_connect v0 v1;
  (e, v0, v1)

let test_via_send_consumes_descriptor () =
  let e, v0, v1 = via_world () in
  let data = payload 1000 5L in
  Engine.spawn e ~name:"receiver" (fun () ->
      Via.post_recv v1 (Bytes.create 2048);
      let buf, len = Via.recv_wait v1 in
      Alcotest.(check int) "len" 1000 len;
      Alcotest.(check bytes) "content" data (Bytes.sub buf 0 1000));
  Engine.spawn e ~name:"sender" (fun () -> Via.send v0 data ~len:1000);
  Engine.run e;
  Alcotest.(check int) "descriptor consumed" 0 (Via.posted_count v1)

let test_via_sender_blocks_without_descriptor () =
  let e, v0, v1 = via_world () in
  let send_done = ref Time.zero in
  Engine.spawn e ~name:"sender" (fun () ->
      Via.send v0 (Bytes.create 100) ~len:100;
      send_done := Engine.now e);
  Engine.spawn e ~name:"receiver" (fun () ->
      Engine.sleep (Time.ms 2.0);
      Via.post_recv v1 (Bytes.create 100);
      ignore (Via.recv_wait v1));
  Engine.run e;
  Alcotest.(check bool)
    "blocked until posted" true
    (Time.compare !send_done (Time.ms 2.0) >= 0)

let test_via_descriptor_limit () =
  let e, v0, v1 = via_world () in
  ignore v1;
  Engine.spawn e ~name:"sender" (fun () ->
      Alcotest.check_raises "limit"
        (Invalid_argument "Via.send: exceeds descriptor max") (fun () ->
          Via.send v0 (Bytes.create (Via.max_transfer + 1))
            ~len:(Via.max_transfer + 1)));
  Engine.run e

let test_via_bounds_overflow () =
  let e, fab, n0, n1 = world Netparams.fast_ethernet in
  let net = Via.make_net e fab in
  let h0 = Via.attach net n0 in
  let v0 = Via.create_vi h0 and v1 = Via.create_vi (Via.attach net n1) in
  Via.vi_connect v0 v1;
  let data = Bytes.create 8 in
  Engine.spawn e ~name:"sender" (fun () ->
      List.iter
        (fun (pos, len) ->
          Alcotest.check_raises "register"
            (Invalid_argument "Via.register: bad range") (fun () ->
              ignore (Via.register h0 data ~pos ~len)))
        overflowing;
      let region = Via.register h0 data ~pos:0 ~len:8 in
      List.iter
        (fun (pos, len) ->
          Alcotest.check_raises "rdma range"
            (Invalid_argument "Via.rdma_write: range outside region")
            (fun () -> Via.rdma_write v0 region ~pos ~len ~cookie:0))
        overflowing);
  Engine.run e

let test_via_reposted_descriptor_reused () =
  (* A consumed buffer re-posted by the receiver carries a second
     message, preserving the descriptor window. *)
  let e, v0, v1 = via_world () in
  Engine.spawn e ~name:"receiver" (fun () ->
      Via.post_recv v1 (Bytes.create 64);
      let buf, _ = Via.recv_wait v1 in
      Alcotest.(check char) "first" 'x' (Bytes.get buf 0);
      Via.post_recv v1 buf;
      let buf2, _ = Via.recv_wait v1 in
      Alcotest.(check bool) "same storage reused" true (buf == buf2);
      Alcotest.(check char) "second" 'y' (Bytes.get buf2 0));
  Engine.spawn e ~name:"sender" (fun () ->
      Via.send v0 (Bytes.make 8 'x') ~len:8;
      Via.send v0 (Bytes.make 8 'y') ~len:8);
  Engine.run e

let test_via_fifo_completion_order () =
  let e, v0, v1 = via_world () in
  Engine.spawn e ~name:"receiver" (fun () ->
      Via.post_recv v1 (Bytes.create 64);
      Via.post_recv v1 (Bytes.create 64);
      let _, l1 = Via.recv_wait v1 in
      let _, l2 = Via.recv_wait v1 in
      Alcotest.(check (list int)) "order" [ 10; 20 ] [ l1; l2 ]);
  Engine.spawn e ~name:"sender" (fun () ->
      Via.send v0 (Bytes.create 10) ~len:10;
      Via.send v0 (Bytes.create 20) ~len:20);
  Engine.run e

(* ------------------------------------------------------------------ *)
(* SBP *)

let sbp_world () =
  let e, fab, n0, n1 = world Netparams.fast_ethernet in
  let net = Sbp.make_net e fab in
  (e, Sbp.attach net n0, Sbp.attach net n1)

let test_sbp_roundtrip () =
  let e, s0, s1 = sbp_world () in
  let data = payload 4000 6L in
  Engine.spawn e ~name:"sender" (fun () ->
      let buf = Sbp.obtain_buffer s0 in
      Bytes.blit data 0 buf 0 4000;
      Sbp.send s0 ~dst:1 ~tag:0 buf ~len:4000;
      Sbp.release_buffer s0 buf);
  Engine.spawn e ~name:"receiver" (fun () ->
      let buf, len = Sbp.recv s1 ~src:0 ~tag:0 in
      Alcotest.(check int) "len" 4000 len;
      Alcotest.(check bytes) "content" data (Bytes.sub buf 0 4000);
      Sbp.release_buffer s1 buf);
  Engine.run e

let test_sbp_buffer_pool_bounded () =
  let e, s0, _s1 = sbp_world () in
  let obtained = ref 0 in
  Engine.spawn e ~daemon:true ~name:"hoarder" (fun () ->
      for _ = 1 to 100 do
        ignore (Sbp.obtain_buffer s0);
        incr obtained
      done);
  Engine.run e;
  Alcotest.(check int) "pool exhausted" 32 !obtained

let test_sbp_len_checked () =
  let e, s0, _ = sbp_world () in
  Engine.spawn e ~name:"sender" (fun () ->
      let buf = Sbp.obtain_buffer s0 in
      Alcotest.check_raises "len" (Invalid_argument "Sbp.send: len exceeds buffer size")
        (fun () -> Sbp.send s0 ~dst:1 ~tag:0 buf ~len:(Sbp.buffer_size + 1)));
  Engine.run e

let test_sbp_tags_isolate () =
  let e, s0, s1 = sbp_world () in
  Engine.spawn e ~name:"sender" (fun () ->
      let buf = Sbp.obtain_buffer s0 in
      Bytes.set buf 0 'a';
      Sbp.send s0 ~dst:1 ~tag:1 buf ~len:1;
      Bytes.set buf 0 'b';
      Sbp.send s0 ~dst:1 ~tag:2 buf ~len:1;
      Sbp.release_buffer s0 buf);
  Engine.spawn e ~name:"receiver" (fun () ->
      let buf2, _ = Sbp.recv s1 ~src:0 ~tag:2 in
      Alcotest.(check char) "tag2" 'b' (Bytes.get buf2 0);
      Sbp.release_buffer s1 buf2;
      let buf1, _ = Sbp.recv s1 ~src:0 ~tag:1 in
      Alcotest.(check char) "tag1" 'a' (Bytes.get buf1 0);
      Sbp.release_buffer s1 buf1);
  Engine.run e

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "protocols"
    [
      ( "bip",
        [
          Alcotest.test_case "short roundtrip" `Quick test_bip_short_roundtrip;
          Alcotest.test_case "send and recv slices" `Quick test_bip_slices;
          Alcotest.test_case "short latency" `Quick test_bip_short_latency;
          Alcotest.test_case "long delivery" `Quick
            test_bip_long_zero_copy_delivery;
          Alcotest.test_case "long bandwidth" `Quick test_bip_long_bandwidth;
          Alcotest.test_case "long is rendezvous" `Quick
            test_bip_long_is_rendezvous;
          Alcotest.test_case "short is not rendezvous" `Quick
            test_bip_short_is_not_rendezvous;
          Alcotest.test_case "credit exhaustion" `Quick
            test_bip_credit_exhaustion_blocks;
          Alcotest.test_case "fifo order" `Quick test_bip_fifo_order;
          Alcotest.test_case "tags isolate" `Quick test_bip_tags_isolate;
          Alcotest.test_case "probe and hook" `Quick test_bip_probe_and_hook;
          Alcotest.test_case "send to self" `Quick
            test_bip_send_to_self_rejected;
          Alcotest.test_case "long send instants" `Quick
            test_bip_long_send_instants;
        ] );
      ( "sisci",
        [
          Alcotest.test_case "pio write visible" `Quick
            test_sisci_pio_write_visible;
          Alcotest.test_case "poll wakes on write" `Quick
            test_sisci_poll_wakes_on_write;
          Alcotest.test_case "small write latency" `Quick
            test_sisci_small_write_latency;
          Alcotest.test_case "pio bandwidth" `Quick test_sisci_pio_bandwidth;
          Alcotest.test_case "dma bandwidth poor" `Quick
            test_sisci_dma_bandwidth_is_poor;
          Alcotest.test_case "write order" `Quick
            test_sisci_write_order_preserved;
          Alcotest.test_case "bounds checked" `Quick test_sisci_bounds_checked;
          Alcotest.test_case "connect missing" `Quick test_sisci_connect_missing;
          Alcotest.test_case "bounds overflow" `Quick test_sisci_bounds_overflow;
          Alcotest.test_case "wait modes" `Quick test_sisci_wait_modes;
          Alcotest.test_case "pio/dma fifo" `Quick test_sisci_pio_dma_share_fifo;
          Alcotest.test_case "pio write instants" `Quick
            test_sisci_pio_write_instants;
          Alcotest.test_case "dma write instants" `Quick
            test_sisci_dma_write_instants;
          Alcotest.test_case "rdma write instants" `Quick
            test_sisci_rdma_write_instants;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "stream reassembly" `Quick
            test_tcp_stream_reassembly;
          Alcotest.test_case "bandwidth" `Quick test_tcp_bandwidth;
          Alcotest.test_case "group ops" `Quick test_tcp_group_ops;
          Alcotest.test_case "recv_group spans sends" `Quick
            test_tcp_recv_group_across_sends;
          Alcotest.test_case "connect errors" `Quick test_tcp_connect_errors;
          Alcotest.test_case "recv bounds overflow" `Quick
            test_tcp_recv_bounds_overflow;
        ] );
      ( "via",
        [
          Alcotest.test_case "send consumes descriptor" `Quick
            test_via_send_consumes_descriptor;
          Alcotest.test_case "sender blocks without descriptor" `Quick
            test_via_sender_blocks_without_descriptor;
          Alcotest.test_case "descriptor limit" `Quick test_via_descriptor_limit;
          Alcotest.test_case "bounds overflow" `Quick test_via_bounds_overflow;
          Alcotest.test_case "fifo completion order" `Quick
            test_via_fifo_completion_order;
          Alcotest.test_case "descriptor reuse" `Quick
            test_via_reposted_descriptor_reused;
        ] );
      ( "sbp",
        [
          Alcotest.test_case "roundtrip" `Quick test_sbp_roundtrip;
          Alcotest.test_case "pool bounded" `Quick test_sbp_buffer_pool_bounded;
          Alcotest.test_case "len checked" `Quick test_sbp_len_checked;
          Alcotest.test_case "tags isolate" `Quick test_sbp_tags_isolate;
        ] );
    ]
