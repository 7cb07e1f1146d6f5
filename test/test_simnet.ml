(* Tests for the simnet discrete-event network substrate. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Fluid = Simnet.Fluid
module Pipeline = Simnet.Pipeline

let check_i64 = Alcotest.(check int64)

(* Virtual-time tolerance for fluid-model rounding: one microsecond. *)
let close_to expected actual msg =
  let d = abs (expected - actual) in
  if d > Time.us 1.0 then
    Alcotest.failf "%s: expected %dns, got %dns" msg expected actual

let run_timed f =
  let e = Engine.create () in
  Engine.spawn e ~name:"main" (fun () -> f e);
  Engine.run e;
  Engine.now e

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Simnet.Rng.create ~seed:42L and b = Simnet.Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Simnet.Rng.next_int64 a) (Simnet.Rng.next_int64 b)
  done

let test_rng_bounds () =
  let r = Simnet.Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let x = Simnet.Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let f = Simnet.Rng.float r 1.0 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_float_mean () =
  (* Catches scaling bugs: the mean of U(0,1) must be near 0.5. *)
  let r = Simnet.Rng.create ~seed:11L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Simnet.Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.02)

let test_rng_int_unbiased () =
  (* Rejection sampling must keep every residue class equally likely.
     A bound of 3 would show modulo bias at the ~1e-19 level only, so
     instead check a coarse chi-square-ish balance on a small bound and
     that bound = 1 is the constant 0. *)
  let r = Simnet.Rng.create ~seed:13L in
  let n = 30_000 and bound = 7 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let x = Simnet.Rng.int r bound in
    counts.(x) <- counts.(x) + 1
  done;
  let expect = float_of_int n /. float_of_int bound in
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "class %d count %d near %.0f" v c expect)
        true
        (Float.abs (float_of_int c -. expect) < 0.05 *. expect))
    counts;
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 is constant" 0 (Simnet.Rng.int r 1)
  done

let test_rng_split_independent () =
  let r = Simnet.Rng.create ~seed:1L in
  let s = Simnet.Rng.split r in
  Alcotest.(check bool) "diverge" true
    (Simnet.Rng.next_int64 r <> Simnet.Rng.next_int64 s)

let test_rng_bytes () =
  let r = Simnet.Rng.create ~seed:3L in
  let b = Simnet.Rng.bytes r 257 in
  Alcotest.(check int) "length" 257 (Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Simnet.Stats.create () in
  List.iter (Simnet.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Simnet.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Simnet.Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Simnet.Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Simnet.Stats.max s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Simnet.Stats.stddev s)

let prop_stats_mean_matches_fold =
  QCheck.Test.make ~name:"stats mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Simnet.Stats.create () in
      List.iter (Simnet.Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Simnet.Stats.mean s -. naive) < 1e-6 *. (1.0 +. Float.abs naive))

(* ------------------------------------------------------------------ *)
(* Fluid *)

let test_fluid_single_transfer () =
  let d =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
        Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ())
  in
  close_to (Time.ms 10.0) d "1MB at 100MB/s"

let test_fluid_zero_bytes_instant () =
  let d =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
        Fluid.transfer f ~bytes_count:0 ~weight:1.0 ())
  in
  Alcotest.(check int) "instant" 0 d

let test_fluid_fair_sharing () =
  (* Two equal transfers share the bus; each effectively gets half. *)
  let d =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
        let done1 = Marcel.Ivar.create () and done2 = Marcel.Ivar.create () in
        Engine.spawn e ~name:"t1" (fun () ->
            Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ();
            Marcel.Ivar.fill done1 ());
        Engine.spawn e ~name:"t2" (fun () ->
            Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ();
            Marcel.Ivar.fill done2 ());
        Marcel.Ivar.read done1;
        Marcel.Ivar.read done2)
  in
  close_to (Time.ms 20.0) d "two 1MB transfers at 100MB/s shared"

let test_fluid_rate_cap () =
  let d =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
        Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ~rate_cap:10.0 ())
  in
  close_to (Time.ms 100.0) d "capped at 10MB/s"

let test_fluid_weighted_priority () =
  (* Capacity 90, A weight 2 / B weight 1, both 1 MB.
     Phase 1: A at 60, B at 30. A done at 16.667ms; B has 0.5MB left.
     Phase 2: B alone at 90: +5.556ms. Total 22.222ms. *)
  let b_done = ref Time.zero and a_done = ref Time.zero in
  let _ =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:90.0 () in
        let fin = Marcel.Ivar.create () and fin2 = Marcel.Ivar.create () in
        Engine.spawn e ~name:"a" (fun () ->
            Fluid.transfer f ~bytes_count:1_000_000 ~weight:2.0 ();
            a_done := Engine.now e;
            Marcel.Ivar.fill fin ());
        Engine.spawn e ~name:"b" (fun () ->
            Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ();
            b_done := Engine.now e;
            Marcel.Ivar.fill fin2 ());
        Marcel.Ivar.read fin;
        Marcel.Ivar.read fin2)
  in
  close_to (Time.us 16666.7) !a_done "heavy transfer finishes first";
  close_to (Time.us 22222.2) !b_done "light transfer finishes later"

let test_fluid_contention_factor () =
  (* Capacity 100 with factor 0.8: two concurrent transfers see 80 total. *)
  let d =
    run_timed (fun e ->
        let f =
          Fluid.create e ~name:"bus" ~capacity_mb_s:100.0
            ~contention_factor:0.8 ()
        in
        let fin = Marcel.Ivar.create () and fin2 = Marcel.Ivar.create () in
        Engine.spawn e ~name:"a" (fun () ->
            Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ();
            Marcel.Ivar.fill fin ());
        Engine.spawn e ~name:"b" (fun () ->
            Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ();
            Marcel.Ivar.fill fin2 ());
        Marcel.Ivar.read fin;
        Marcel.Ivar.read fin2)
  in
  close_to (Time.ms 25.0) d "2MB total at effective 80MB/s"

let test_fluid_sequential_full_rate () =
  (* A transfer starting after another finished sees the full capacity. *)
  let d =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
        Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ();
        Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ())
  in
  close_to (Time.ms 20.0) d "sequential transfers"

let test_fluid_total_bytes () =
  let total = ref 0.0 in
  let _ =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
        Fluid.transfer f ~bytes_count:1000 ~weight:1.0 ();
        Fluid.transfer f ~bytes_count:500 ~weight:1.0 ();
        total := Fluid.total_bytes f)
  in
  Alcotest.(check (float 0.01)) "bytes accounted" 1500.0 !total

let test_fluid_invalid_args () =
  let e = Engine.create () in
  Alcotest.check_raises "capacity" (Invalid_argument "Fluid.create: capacity <= 0")
    (fun () -> ignore (Fluid.create e ~name:"x" ~capacity_mb_s:0.0 ()));
  Alcotest.check_raises "factor"
    (Invalid_argument "Fluid.create: contention_factor out of (0,1]") (fun () ->
      ignore (Fluid.create e ~name:"x" ~capacity_mb_s:1.0 ~contention_factor:1.5 ()))

let prop_fluid_work_conservation =
  (* N concurrent random transfers on one resource: everything finishes,
     no earlier than perfect sharing allows (total/capacity) and no later
     than fully serialized execution. *)
  QCheck.Test.make ~name:"fluid work conservation bounds" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 1 2_000_000))
    (fun sizes ->
      let e = Engine.create () in
      let f = Fluid.create e ~name:"bus" ~capacity_mb_s:100.0 () in
      List.iteri
        (fun i n ->
          Engine.spawn e ~name:(string_of_int i) (fun () ->
              Fluid.transfer f ~bytes_count:n ~weight:1.0 ()))
        sizes;
      Engine.run e;
      let total = List.fold_left ( + ) 0 sizes in
      let lower = Time.bytes_at_rate ~bytes_count:total ~mb_per_s:100.0 in
      let slack = Time.us 2.0 in
      let finished = Engine.now e in
      finished + slack >= lower
      && finished <= lower + slack
      && Float.abs (Fluid.total_bytes f -. float_of_int total) < 1.0)

let prop_fluid_conserves_time =
  (* A single uncontended transfer always takes bytes/min(cap,capacity). *)
  QCheck.Test.make ~name:"fluid single-transfer duration" ~count:100
    QCheck.(pair (int_range 1 10_000_000) (float_range 1.0 500.0))
    (fun (bytes_count, capacity) ->
      let e = Engine.create () in
      let f = Fluid.create e ~name:"bus" ~capacity_mb_s:capacity () in
      Engine.spawn e ~name:"t" (fun () ->
          Fluid.transfer f ~bytes_count ~weight:1.0 ());
      Engine.run e;
      let expect = Time.bytes_at_rate ~bytes_count ~mb_per_s:capacity in
      let d = abs (Engine.now e - expect) in
      d <= Time.us 1.0)

(* ------------------------------------------------------------------ *)
(* Node / Fabric *)

let test_node_pci_classes () =
  (* PIO is capped at the PIO rate even on an idle bus. *)
  let d =
    run_timed (fun e ->
        let n = Simnet.Node.create e ~name:"n0" ~id:0 in
        Simnet.Node.pci_pio n ~bytes_count:1_000_000)
  in
  close_to
    (Time.bytes_at_rate ~bytes_count:1_000_000
       ~mb_per_s:Simnet.Netparams.pci_pio_rate_cap_mb_s)
    d "PIO cap"

let test_node_pci_dma_starves_pio () =
  (* Concurrent DMA (weight 2) and PIO (weight 1): PIO gets a third of the
     degraded bus, reproducing the Fig. 11 arbitration asymmetry. *)
  let pio_done = ref Time.zero in
  let _ =
    run_timed (fun e ->
        let n = Simnet.Node.create e ~name:"gw" ~id:0 in
        let fin = Marcel.Ivar.create () and fin2 = Marcel.Ivar.create () in
        Engine.spawn e ~name:"dma" (fun () ->
            Simnet.Node.pci_dma n ~bytes_count:10_000_000;
            Marcel.Ivar.fill fin ());
        Engine.spawn e ~name:"pio" (fun () ->
            Simnet.Node.pci_pio n ~bytes_count:1_000_000;
            pio_done := Engine.now e;
            Marcel.Ivar.fill fin2 ());
        Marcel.Ivar.read fin;
        Marcel.Ivar.read fin2)
  in
  (* PIO vs DMA is a mixed-class workload: effective capacity =
     132 * mixed_factor; PIO's weighted share is a third of it. *)
  let expected =
    Time.bytes_at_rate ~bytes_count:1_000_000
      ~mb_per_s:(Simnet.Netparams.pci_capacity_mb_s
                 *. Simnet.Netparams.pci_mixed_contention_factor /. 3.0)
  in
  let d = abs (expected - !pio_done) in
  Alcotest.(check bool)
    (Printf.sprintf "PIO starved (expected ~%d, got %d)" expected !pio_done)
    true
    (d <= Time.us 50.0)

(* Stream: persistent FIFO pipeline *)

let test_stream_preserves_order () =
  (* A small message pushed right after a large one must not overtake it. *)
  let e = Engine.create () in
  let f = Fluid.create e ~name:"wire" ~capacity_mb_s:100.0 () in
  let st =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage
            ~use:{ Pipeline.fluid = f; weight = 1.0; rate_cap = None; cls = 0 }
            "wire";
        ]
      ~mtu:1024
  in
  let order = ref [] in
  Engine.spawn e ~name:"pusher" (fun () ->
      Simnet.Stream.push st ~bytes_count:100_000 ~on_delivered:(fun () ->
          order := "big" :: !order);
      Simnet.Stream.push st ~bytes_count:10 ~on_delivered:(fun () ->
          order := "small" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "fifo" [ "big"; "small" ] (List.rev !order)

let test_stream_pipelines_messages () =
  (* Two equal-cost stages: a second message overlaps the first. *)
  let e = Engine.create () in
  let f1 = Fluid.create e ~name:"s1" ~capacity_mb_s:100.0 () in
  let f2 = Fluid.create e ~name:"s2" ~capacity_mb_s:100.0 () in
  let st =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage
            ~use:{ Pipeline.fluid = f1; weight = 1.0; rate_cap = None; cls = 0 }
            "s1";
          Pipeline.stage
            ~use:{ Pipeline.fluid = f2; weight = 1.0; rate_cap = None; cls = 0 }
            "s2";
        ]
      ~mtu:100_000
  in
  let last = ref Time.zero in
  Engine.spawn e ~name:"pusher" (fun () ->
      for _ = 1 to 4 do
        Simnet.Stream.push st ~bytes_count:100_000 ~on_delivered:(fun () ->
            last := Engine.now e)
      done);
  Engine.run e;
  (* 1 MB at 100 MB/s per stage = 1 ms per stage per message; pipelined:
     (4 + 2 - 1) * 1ms = 5ms, not the 8ms of sequential execution. *)
  close_to (Time.ms 5.0) !last "pipelined stream"

(* Stage-machine schedules pinned exactly. The completion instants are
   the values the fragment pipeline produced when every stage ran as
   its own thread; any reimplementation of the stages must reproduce
   them to the nanosecond. The event count and schedule fingerprint pin
   the current stage machine, which hands a fragment over at the same
   instant without an engine event unless another event is queued at
   that instant; a change that moves them must say why. *)

let wire ?rate_cap ?(weight = 1.0) fluid =
  { Pipeline.fluid; weight; rate_cap; cls = 0 }

let check_schedule e ~events ~fingerprint times expected =
  Alcotest.(check (list (pair string int))) "completion instants" expected
    (List.rev times);
  Alcotest.(check int) "events" events (Engine.events_processed e);
  Alcotest.(check int) "fingerprint" fingerprint (Engine.fingerprint e)

let test_stream_mixed_sizes_schedule () =
  let e = Engine.create () in
  let f1 = Fluid.create e ~name:"f1" ~capacity_mb_s:100.0 () in
  let f2 = Fluid.create e ~name:"f2" ~capacity_mb_s:50.0 () in
  let st =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage ~use:(wire f1) ~per_fragment:(Time.us 1.0)
            ~prop:(Time.us 2.0) "a";
          Pipeline.stage ~per_fragment:(Time.us 0.5) "b";
          Pipeline.stage ~use:(wire ~rate_cap:40.0 f2) "c";
        ]
      ~mtu:1000
  in
  let times = ref [] in
  let push label bytes_count =
    Simnet.Stream.push st ~bytes_count ~on_delivered:(fun () ->
        times := (label, Engine.now e) :: !times)
  in
  Engine.spawn e ~name:"pusher" (fun () ->
      push "2500" 2500;
      push "0" 0;
      push "10" 10;
      Engine.sleep (Time.us 3.0);
      push "4000" 4000;
      push "1000" 1000);
  Engine.run e;
  check_schedule e ~events:55 ~fingerprint:(-219682118186614044) !times
    [
      ("2500", 76000);
      ("0", 76000);
      ("10", 76250);
      ("4000", 176250);
      ("1000", 201250);
    ]

let test_streams_share_fluid_schedule () =
  let e = Engine.create () in
  let shared = Fluid.create e ~name:"shared" ~capacity_mb_s:100.0 () in
  let own = Fluid.create e ~name:"own" ~capacity_mb_s:80.0 () in
  let s1 =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage ~use:(wire shared) "shared";
          Pipeline.stage ~use:(wire own) ~prop:(Time.us 1.5) "own";
        ]
      ~mtu:512
  and s2 =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage ~use:(wire ~weight:2.0 shared) ~prop:(Time.us 1.0)
            "shared";
        ]
      ~mtu:700
  in
  let times = ref [] in
  let push st label bytes_count =
    Simnet.Stream.push st ~bytes_count ~on_delivered:(fun () ->
        times := (label, Engine.now e) :: !times)
  in
  Engine.spawn e ~name:"p1" (fun () ->
      push s1 "s1:3000" 3000;
      push s1 "s1:100" 100);
  Engine.spawn e ~name:"p2" (fun () ->
      Engine.sleep (Time.us 2.0);
      push s2 "s2:2100" 2100;
      push s2 "s2:0" 0);
  Engine.run e;
  check_schedule e ~events:43 ~fingerprint:(-3146307702752453976) !times
    [
      ("s2:2100", 34500);
      ("s2:0", 34500);
      ("s1:3000", 62560);
      ("s1:100", 63810);
    ]

let test_pipeline_per_fragment_schedule () =
  let e = Engine.create () in
  let f = Fluid.create e ~name:"f" ~capacity_mb_s:100.0 () in
  let g = Fluid.create e ~name:"g" ~capacity_mb_s:60.0 () in
  let stages =
    [
      Pipeline.stage ~use:(wire f) ~per_fragment:(Time.us 0.3) "f";
      Pipeline.stage ~per_fragment:(Time.us 1.0) ~prop:(Time.us 0.5) "sw";
      Pipeline.stage ~use:(wire g) ~per_fragment:(Time.us 0.2) "g";
    ]
  in
  let times = ref [] in
  let transfer label bytes_count () =
    Pipeline.run e ~stages ~bytes_count ~mtu:1024;
    times := (label, Engine.now e) :: !times
  in
  Engine.spawn e ~name:"t5000" (transfer "5000" 5000);
  Engine.spawn e ~name:"t0" (transfer "0" 0);
  Engine.spawn e ~name:"t2048" (fun () ->
      Engine.sleep (Time.us 4.0);
      transfer "2048" 2048 ());
  Engine.run e;
  check_schedule e ~events:75 ~fingerprint:(-3141957673646779411) !times
    [ ("0", 2000); ("2048", 94248); ("5000", 136349) ]

(* Two streams whose first stages share one fluid, fed at the same
   instant from two engine actions (not threads): the shared fluid's
   water-filling sees both transfers join at once. The delivery instants
   and their order are pinned; no event count is, so a schedule with
   fewer same-instant events must still reproduce every line. *)
let test_same_instant_contention () =
  let e = Engine.create () in
  let shared = Fluid.create e ~name:"shared" ~capacity_mb_s:100.0 () in
  let own1 = Fluid.create e ~name:"own1" ~capacity_mb_s:150.0 () in
  let own2 = Fluid.create e ~name:"own2" ~capacity_mb_s:60.0 () in
  let s1 =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage ~use:(wire shared) ~prop:(Time.us 0.5) "shared";
          Pipeline.stage ~use:(wire own1) "own1";
        ]
      ~mtu:512
  and s2 =
    Simnet.Stream.create e
      ~stages:
        [
          Pipeline.stage ~use:(wire ~weight:2.0 shared) "shared";
          Pipeline.stage ~use:(wire ~rate_cap:40.0 own2) ~prop:(Time.us 1.0)
            "own2";
        ]
      ~mtu:512
  in
  let order = ref [] in
  let push st label bytes_count =
    Simnet.Stream.push st ~bytes_count ~on_delivered:(fun () ->
        order := (label, Engine.now e) :: !order)
  in
  let at = Time.us 3.0 in
  Engine.at e at (fun () ->
      push s1 "s1:1500" 1500;
      push s1 "s1:1" 1);
  Engine.at e at (fun () ->
      push s2 "s2:1024" 1024;
      push s2 "s2:0" 0;
      push s2 "s2:700" 700);
  Engine.run e;
  Alcotest.(check (list (pair string int))) "delivery order and instants"
    [
      ("s2:1024", 37280);
      ("s2:0", 37280);
      ("s1:1500", 38914);
      ("s1:1", 38921);
      ("s2:700", 54780);
    ]
    (List.rev !order)

let test_fabric_attach () =
  let e = Engine.create () in
  let fab =
    Simnet.Fabric.create e ~name:"myri" ~link:Simnet.Netparams.myrinet
  in
  let n0 = Simnet.Node.create e ~name:"n0" ~id:0 in
  let n1 = Simnet.Node.create e ~name:"n1" ~id:1 in
  Simnet.Fabric.attach fab n0;
  Simnet.Fabric.attach fab n1;
  Alcotest.(check bool) "attached" true (Simnet.Fabric.attached fab n0);
  Alcotest.(check int) "nodes" 2 (List.length (Simnet.Fabric.nodes fab));
  Alcotest.check_raises "double attach"
    (Invalid_argument "Fabric.attach: n0 already attached to myri") (fun () ->
      Simnet.Fabric.attach fab n0);
  let n2 = Simnet.Node.create e ~name:"n2" ~id:2 in
  Alcotest.(check bool) "not attached" false (Simnet.Fabric.attached fab n2);
  Alcotest.check_raises "tx of unattached"
    (Invalid_argument "Fabric.tx: node n2 not attached to fabric myri")
    (fun () -> ignore (Simnet.Fabric.tx fab n2));
  Alcotest.check_raises "rx of unattached"
    (Invalid_argument "Fabric.rx: node n2 not attached to fabric myri")
    (fun () -> ignore (Simnet.Fabric.rx fab n2))

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_pipeline_latency_only () =
  (* One empty fragment through fixed costs and propagation. *)
  let d =
    run_timed (fun e ->
        Pipeline.run e
          ~stages:
            [
              Pipeline.stage ~per_fragment:(Time.us 1.0) ~prop:(Time.us 2.0) "sw";
              Pipeline.stage ~per_fragment:(Time.us 0.5) "rx";
            ]
          ~bytes_count:0 ~mtu:1024)
  in
  close_to (Time.us 3.5) d "latency path"

let test_pipeline_serialization () =
  (* 10 fragments of 1000B through a 100MB/s stage: 10 x 10us, then 5us
     propagation for the last fragment. *)
  let d =
    run_timed (fun e ->
        let f = Fluid.create e ~name:"wire" ~capacity_mb_s:100.0 () in
        Pipeline.run e
          ~stages:
            [
              Pipeline.stage
                ~use:{ Pipeline.fluid = f; weight = 1.0; rate_cap = None; cls = 0 }
                ~prop:(Time.us 5.0) "wire";
            ]
          ~bytes_count:10_000 ~mtu:1000)
  in
  close_to (Time.us 105.0) d "serialized fragments"

let test_pipeline_two_stages_overlap () =
  (* Two equal 100MB/s stages on separate resources: classic pipeline
     formula (n + s - 1) * t = (10 + 2 - 1) * 10us. *)
  let d =
    run_timed (fun e ->
        let f1 = Fluid.create e ~name:"s1" ~capacity_mb_s:100.0 () in
        let f2 = Fluid.create e ~name:"s2" ~capacity_mb_s:100.0 () in
        Pipeline.run e
          ~stages:
            [
              Pipeline.stage
                ~use:{ Pipeline.fluid = f1; weight = 1.0; rate_cap = None; cls = 0 }
                "s1";
              Pipeline.stage
                ~use:{ Pipeline.fluid = f2; weight = 1.0; rate_cap = None; cls = 0 }
                "s2";
            ]
          ~bytes_count:10_000 ~mtu:1000)
  in
  close_to (Time.us 110.0) d "pipelined stages overlap"

let test_pipeline_bottleneck_dominates () =
  (* Fast stage feeding a slow stage: throughput set by the slow one. *)
  let d =
    run_timed (fun e ->
        let fast = Fluid.create e ~name:"fast" ~capacity_mb_s:1000.0 () in
        let slow = Fluid.create e ~name:"slow" ~capacity_mb_s:10.0 () in
        Pipeline.run e
          ~stages:
            [
              Pipeline.stage
                ~use:{ Pipeline.fluid = fast; weight = 1.0; rate_cap = None; cls = 0 }
                "fast";
              Pipeline.stage
                ~use:{ Pipeline.fluid = slow; weight = 1.0; rate_cap = None; cls = 0 }
                "slow";
            ]
          ~bytes_count:1_000_000 ~mtu:10_000)
  in
  (* first fragment crosses fast stage in 10us; then 100 fragments of
     10kB at 10MB/s = 1ms each. *)
  close_to (Time.add (Time.us 10.0) (Time.ms 100.0)) d "bottleneck"

let test_pipeline_rejects_bad_args () =
  let e = Engine.create () in
  Engine.spawn e ~name:"t" (fun () ->
      Alcotest.check_raises "no stages"
        (Invalid_argument "Pipeline.run: no stages") (fun () ->
          Pipeline.run e ~stages:[] ~bytes_count:1 ~mtu:1);
      Alcotest.check_raises "mtu" (Invalid_argument "Pipeline.run: mtu <= 0")
        (fun () ->
          Pipeline.run e
            ~stages:[ Pipeline.stage "x" ]
            ~bytes_count:1 ~mtu:0));
  Engine.run e

let prop_pipeline_single_stage_duration =
  (* n fragments through one fluid stage = bytes/capacity regardless of
     fragmentation. *)
  QCheck.Test.make ~name:"pipeline single-stage total time" ~count:50
    QCheck.(pair (int_range 1 1_000_000) (int_range 64 65536))
    (fun (bytes_count, mtu) ->
      let e = Engine.create () in
      Engine.spawn e ~name:"t" (fun () ->
          let f = Fluid.create e ~name:"w" ~capacity_mb_s:100.0 () in
          Pipeline.run e
            ~stages:
              [
                Pipeline.stage
                  ~use:{ Pipeline.fluid = f; weight = 1.0; rate_cap = None; cls = 0 }
                  "w";
              ]
            ~bytes_count ~mtu);
      Engine.run e;
      let expect = Time.bytes_at_rate ~bytes_count ~mb_per_s:100.0 in
      let nfrag = (bytes_count + mtu - 1) / mtu in
      (* Each fragment completion can round up by 1ns. *)
      let slack = Time.us 1.0 + nfrag in
      abs (Engine.now e - expect) <= slack)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "simnet"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int unbiased" `Quick test_rng_int_unbiased;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bytes" `Quick test_rng_bytes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          QCheck_alcotest.to_alcotest prop_stats_mean_matches_fold;
        ] );
      ( "fluid",
        [
          Alcotest.test_case "single transfer" `Quick test_fluid_single_transfer;
          Alcotest.test_case "zero bytes" `Quick test_fluid_zero_bytes_instant;
          Alcotest.test_case "fair sharing" `Quick test_fluid_fair_sharing;
          Alcotest.test_case "rate cap" `Quick test_fluid_rate_cap;
          Alcotest.test_case "weighted priority" `Quick
            test_fluid_weighted_priority;
          Alcotest.test_case "contention factor" `Quick
            test_fluid_contention_factor;
          Alcotest.test_case "sequential full rate" `Quick
            test_fluid_sequential_full_rate;
          Alcotest.test_case "total bytes" `Quick test_fluid_total_bytes;
          Alcotest.test_case "invalid args" `Quick test_fluid_invalid_args;
          QCheck_alcotest.to_alcotest prop_fluid_conserves_time;
          QCheck_alcotest.to_alcotest prop_fluid_work_conservation;
        ] );
      ( "node",
        [
          Alcotest.test_case "pci classes" `Quick test_node_pci_classes;
          Alcotest.test_case "dma starves pio" `Quick
            test_node_pci_dma_starves_pio;
        ] );
      ( "stream",
        [
          Alcotest.test_case "preserves order" `Quick
            test_stream_preserves_order;
          Alcotest.test_case "pipelines messages" `Quick
            test_stream_pipelines_messages;
          Alcotest.test_case "mixed sizes schedule" `Quick
            test_stream_mixed_sizes_schedule;
          Alcotest.test_case "shared fluid schedule" `Quick
            test_streams_share_fluid_schedule;
          Alcotest.test_case "same-instant contention" `Quick
            test_same_instant_contention;
        ] );
      ("fabric", [ Alcotest.test_case "attach" `Quick test_fabric_attach ]);
      ( "pipeline",
        [
          Alcotest.test_case "latency only" `Quick test_pipeline_latency_only;
          Alcotest.test_case "serialization" `Quick test_pipeline_serialization;
          Alcotest.test_case "two stages overlap" `Quick
            test_pipeline_two_stages_overlap;
          Alcotest.test_case "bottleneck dominates" `Quick
            test_pipeline_bottleneck_dominates;
          Alcotest.test_case "bad args" `Quick test_pipeline_rejects_bad_args;
          Alcotest.test_case "per-fragment schedule" `Quick
            test_pipeline_per_fragment_schedule;
          QCheck_alcotest.to_alcotest prop_pipeline_single_stage_duration;
        ] );
    ]
