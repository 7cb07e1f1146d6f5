(* The repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--trace-out FILE]
     perfbench.exe --selfcheck

   Runs one seeded workload (p2p-ladder, gateway-mix, lossy-reliable) in
   this process on one OCaml domain. The first repetition is a warm-up
   and the reference simulated outcome; further repetitions run until
   [S] seconds have passed (at least [min_reps]) and must reproduce the
   reference simulated metrics exactly. Host metrics are medians over
   the timed repetitions. A human-readable report comes first; the last
   line of standard output is one JSON object with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).

   With --trace 1, untraced and traced repetitions alternate: per-call
   spans come from the traced ones, host numbers from the untraced ones,
   and the host throughput lost to tracing is reported as
   trace.overhead_frac. *)

type workload = {
  name : string;
  make : seed:int -> unit -> Work.outcome * (string * float) list;
      (** generates the inputs, returns one repetition *)
  traced : unit -> (string * float) list;  (** per-layer metrics from spans *)
}

let workloads =
  [
    {
      name = "p2p-ladder";
      make =
        (fun ~seed ->
          let inp = P2p_ladder.prepare ~seed in
          fun () -> P2p_ladder.run inp);
      traced = P2p_ladder.traced_layers;
    };
    {
      name = "gateway-mix";
      make =
        (fun ~seed ->
          let inp = Gateway_mix.prepare ~seed in
          fun () -> Gateway_mix.run inp);
      traced = (fun () -> []);
    };
    {
      name = "lossy-reliable";
      make =
        (fun ~seed ->
          let inp = Lossy_reliable.prepare ~seed in
          fun () -> Lossy_reliable.run inp);
      traced = (fun () -> []);
    };
  ]

(* ------------------------------------------------------------------ *)
(* The metrics printed, by name and unit (BENCHMARK.json lists the same
   names). A per-layer metric a workload does not exercise reads 0. *)

let end_to_end =
  [
    ("lat_p50_us", "us");
    ("lat_p99_us", "us");
    ("goodput_mb_s", "MB/s");
    ("bulk_bw_mb_s", "MB/s");
    ("host_msgs_per_s", "msg/s");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let api_calls =
  [ "begin_packing"; "pack"; "end_packing"; "begin_unpacking"; "unpack"; "end_unpacking" ]

let per_layer =
  [
    ("sisci_lat_us", "us");
    ("bip_lat_us", "us");
    ("sisci_bw_mb_s", "MB/s");
    ("bip_bw_mb_s", "MB/s");
    ("api.bip_overhead_vs_raw_us", "us");
  ]
  @ List.concat_map
      (fun tag ->
        List.map (fun call -> (Printf.sprintf "api.%s.%s_us" tag call, "us")) api_calls)
      [ "sisci.4B"; "sisci.1MB"; "bip.4B"; "bip.1MB" ]
  @ List.concat_map
      (fun tm ->
        [ ("channel.tm_packets." ^ tm, "count"); ("channel.tm_bytes." ^ tm, "B") ])
      [ "sisci.short"; "sisci.regular"; "bip.short"; "bip.long"; "tcp.tcp" ]
  @ [
      ("simnet.pci_bytes_per_payload_byte", "ratio");
      ("simnet.pci_util.gw", "ratio");
      ("fwd_bw_mb_s", "MB/s");
      ("vchannel.fwd_packets", "count");
      ("vchannel.fwd_bytes", "B");
      ("vchannel.fwd_packets_per_msg", "ratio");
      ("vchannel.pack_wait_us.p50", "us");
      ("vchannel.pack_wait_us.p99", "us");
      ("gen.lag_us.p50", "us");
      ("gen.lag_us.p99", "us");
      ("vchannel.bulk_msg_us.p50", "us");
      ("vchannel.bulk_msg_us.p99", "us");
      ("sched.frames", "count");
      ("sched.aggregates", "count");
      ("sched.merged_ratio", "ratio");
      ("sched.mean_frames", "count");
      ("sched.flush_full", "count");
      ("sched.flush_deadline", "count");
      ("sched.flush_flow", "count");
      ("sched.flush_barrier", "count");
      ("faults.frames_dropped", "count");
      ("faults.heartbeats_lost", "count");
      ("tcpnet.retransmissions", "count");
      ("tcpnet.crc_rejects", "count");
      ("tcpnet.handshakes", "count");
      ("tcpnet.inbox_peak", "B");
      ("tcpnet.sendq_peak", "count");
      ("tcpnet.rexmit_per_drop", "ratio");
      ("vchannel.reroutes", "count");
      ("vchannel.reemitted", "count");
      ("vchannel.dup_drops", "count");
      ("vchannel.unacked_peak", "count");
      ("sentinel.suspicions", "count");
      ("vchannel.no_route_retries", "count");
    ]
  @ List.map (fun n -> ("worlds_failed." ^ n, "count")) Work.expected_failures
  @ [
      ("failed_frac", "ratio");
      ("lat_samples", "count");
      ("marcel.events", "count");
      ("marcel.events_per_msg", "count");
      ("marcel.ns_per_event", "ns");
      ("host.alloc_bytes_per_msg", "B");
      ("host.major_collections", "count");
      ("harness.setup_s_per_world", "s");
      ("host.msgs_per_s_raw", "msg/s");
      ("host.scale", "ratio");
      ("host.msgs_per_s_traced", "msg/s");
      ("trace.overhead_frac", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Repetitions *)

(* Everything simulated a repetition produced: deterministic per seed. *)
let simulated (o, layer) =
  let f = float_of_int in
  Work.e2e o @ layer
  @ List.map (fun (n, c) -> ("worlds_failed." ^ n, f c)) o.Work.failures
  @ [
      ("failed_frac", Work.ratio (f (Work.failed o)) (f o.Work.attempted));
      ("lat_samples", f (Stats.length o.Work.lat));
      ("marcel.events", f o.Work.events);
      ("marcel.events_per_msg", Work.ratio (f o.Work.events) (f o.Work.delivered));
      ("vchannel.no_route_retries", f o.Work.no_route_retries);
    ]

(* Host measurements of one repetition. Times and rates are at the
   reference host speed: each world's Engine.run time is divided by the
   host scale the probes around it read, set-up times by the
   repetition's mean scale. [raw_msgs_per_s] and [scale] are as
   measured. *)
type host = {
  msgs_per_s : float;
  raw_msgs_per_s : float;
  scale : float;
  setup_s : float;
  ns_per_event : float;
  alloc_per_msg : float;
  majors : float;
  setup_per_world : float;
}

let measure rep =
  let alloc0 = Gc.allocated_bytes () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let ((o, _) as r) = rep () in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let scale = Work.mean_scale o in
  let delivered = float_of_int (max 1 o.Work.delivered) in
  let setup_s = o.Work.setup_s /. scale in
  ( r,
    {
      msgs_per_s = delivered /. o.Work.scaled_run_s;
      raw_msgs_per_s = delivered /. o.Work.run_s;
      scale;
      setup_s;
      ns_per_event = o.Work.scaled_run_s *. 1e9 /. float_of_int (max 1 o.Work.events);
      alloc_per_msg = alloc /. delivered;
      majors = float_of_int majors;
      setup_per_world = setup_s /. float_of_int (max 1 o.Work.worlds);
    } )

let min_reps = 3

let median_by f hs = Stats.median_of_list (List.map f hs)

let quartiles_by f hs =
  match Stats.quantiles_of_list (List.map f hs) [ 0.25; 0.5; 0.75 ] with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

let lookup metrics name =
  try List.assoc name metrics with Not_found -> 0.0

(* The readable report: the end-to-end figures this workload measures,
   the paper's among them, with quartiles of the host metrics across
   repetitions. *)
let report ~wl ~seed ~sim ~hosts ~heap ~o =
  Printf.printf "perfbench %s seed=%d: %d timed repetitions after 1 warm-up\n"
    wl.name seed (List.length hosts);
  let line name unit v = Printf.printf "  %-26s %12.6g %s\n" name v unit in
  let present name = List.mem_assoc name sim in
  List.iter
    (fun (name, unit) -> if present name then line name unit (lookup sim name))
    [
      ("sisci_lat_us", "us");
      ("bip_lat_us", "us");
      ("sisci_bw_mb_s", "MB/s");
      ("bip_bw_mb_s", "MB/s");
      ("api.bip_overhead_vs_raw_us", "us");
    ];
  line "lat_p50_us" "us" (lookup sim "lat_p50_us");
  line "lat_p99_us" "us" (lookup sim "lat_p99_us");
  line "lat_samples" "count" (lookup sim "lat_samples");
  if present "fwd_bw_mb_s" then line "fwd_bw_mb_s" "MB/s" (lookup sim "fwd_bw_mb_s");
  line "bulk_bw_mb_s" "MB/s" (lookup sim "bulk_bw_mb_s");
  line "goodput_mb_s" "MB/s" (lookup sim "goodput_mb_s");
  line "failed_frac" "ratio" (lookup sim "failed_frac");
  List.iter
    (fun (n, c) -> Printf.printf "  worlds failed with %s: %d\n" n c)
    o.Work.failures;
  let q name unit f =
    let q1, q2, q3 = quartiles_by f hosts in
    Printf.printf "  %-26s %12.6g %s  (q1 %.6g, q3 %.6g)\n" name q2 unit q1 q3
  in
  q "host_msgs_per_s" "msg/s" (fun h -> h.msgs_per_s);
  q "  as measured" "msg/s" (fun h -> h.raw_msgs_per_s);
  q "  host scale" "x" (fun h -> h.scale);
  q "setup_s" "s" (fun h -> h.setup_s);
  q "marcel.ns_per_event" "ns" (fun h -> h.ns_per_event);
  line "heap_peak_mb" "MB" heap

(* ------------------------------------------------------------------ *)

let run_workload wl ~seed ~seconds ~trace ~trace_out =
  let rep = wl.make ~seed in
  Work.host_scale := Probe.scale;
  let ((o, _) as first) = rep () in
  let reference = simulated first in
  let deterministic = ref true in
  let check r = if simulated r <> reference then deterministic := false in
  let plain = ref [] and traced = ref [] and traced_layers = ref [] in
  let t0 = Unix.gettimeofday () in
  while
    Unix.gettimeofday () -. t0 < float_of_int seconds || List.length !plain < min_reps
  do
    let r, h = measure rep in
    check r;
    plain := h :: !plain;
    if trace then begin
      Trace.reset ();
      Trace.enabled := true;
      let r, h = measure rep in
      Trace.enabled := false;
      check r;
      traced := h :: !traced;
      traced_layers := wl.traced ()
    end
  done;
  let hosts = !plain in
  let heap =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  report ~wl ~seed ~sim:reference ~hosts ~heap ~o;
  let unexpected = Work.unexpected_failures o in
  List.iter (fun (n, c) -> Printf.printf "  UNEXPECTED world failure (%d): %s\n" c n) unexpected;
  if not !deterministic then
    print_endline "  ERROR: simulated metrics differ between repetitions";
  if o.Work.corrupted > 0 then
    Printf.printf "  ERROR: %d messages arrived with wrong bytes\n" o.Work.corrupted;
  let correct = !deterministic && o.Work.corrupted = 0 && unexpected = [] in
  let metrics =
    if not trace then
      let values =
        Work.e2e o
        @ [
            ("host_msgs_per_s", median_by (fun h -> h.msgs_per_s) hosts);
            ("setup_s", median_by (fun h -> h.setup_s) hosts);
            ("heap_peak_mb", heap);
          ]
      in
      List.map (fun (n, u) -> (n, u, lookup values n)) end_to_end
    else begin
      let untraced = median_by (fun h -> h.msgs_per_s) hosts in
      let traced_rate = median_by (fun h -> h.msgs_per_s) !traced in
      let values =
        reference @ !traced_layers
        @ [
            ("marcel.ns_per_event", median_by (fun h -> h.ns_per_event) hosts);
            ("host.alloc_bytes_per_msg", median_by (fun h -> h.alloc_per_msg) hosts);
            ("host.major_collections", median_by (fun h -> h.majors) hosts);
            ("harness.setup_s_per_world", median_by (fun h -> h.setup_per_world) hosts);
            ("host.msgs_per_s_raw", median_by (fun h -> h.raw_msgs_per_s) hosts);
            ("host.scale", median_by (fun h -> h.scale) hosts);
            ("host.msgs_per_s_traced", traced_rate);
            ("trace.overhead_frac", 1.0 -. (traced_rate /. untraced));
          ]
      in
      Printf.printf "  tracing overhead: %.1f%% of host_msgs_per_s (%.0f traced vs %.0f untraced)\n"
        (100.0 *. (1.0 -. (traced_rate /. untraced)))
        traced_rate untraced;
      (match trace_out with
      | Some file ->
          Trace.write_jsonl file;
          Printf.printf "  spans of the last traced repetition: %s (%d spans)\n" file
            (List.length !Trace.spans)
      | None -> ());
      List.map (fun (n, u) -> (n, u, lookup values n)) per_layer
    end
  in
  print_endline
    (json_result ~correct ~attempted:o.Work.attempted ~failed:(Work.failed o) metrics)

(* ------------------------------------------------------------------ *)
(* Self-check: p2p-ladder's paper rows equal what bench/main.exe fig4 and
   fig5 print, and tracing leaves every simulated metric unchanged. *)

let selfcheck () =
  let inp = P2p_ladder.prepare ~seed:1 in
  let untraced = simulated (P2p_ladder.run inp) in
  Trace.enabled := true;
  let traced = simulated (P2p_ladder.run inp) in
  Trace.enabled := false;
  let failures = ref 0 in
  let expect name shown =
    let v = Printf.sprintf "%.2f" (lookup untraced name) in
    Printf.printf "  %-28s %8s (figure: %s)\n" name v shown;
    if v <> shown then incr failures
  in
  print_endline "perfbench self-check: p2p-ladder against Figs. 4/5";
  expect "sisci_lat_us" "3.97";
  expect "sisci_bw_mb_s" "83.04";
  expect "bip_lat_us" "7.09";
  expect "bip_bw_mb_s" "125.58";
  expect "api.bip_overhead_vs_raw_us" "2.05";
  let fig name world size iters =
    let expected = Marcel.Time.to_us (Harness.mad_pingpong (world ()) ~bytes_count:size ~iters) in
    let got = lookup untraced name in
    Printf.printf "  %-28s %8.3f = Harness.mad_pingpong %.3f\n" name got expected;
    if got <> expected then incr failures
  in
  fig "sisci_lat_us" (fun () -> Harness.sisci_world ()) 4 20;
  fig "bip_lat_us" (fun () -> Harness.bip_world ()) 4 20;
  if traced <> untraced then begin
    print_endline "  FAIL: simulated metrics differ with tracing on";
    incr failures
  end
  else print_endline "  simulated metrics identical with tracing on and off";
  if !Trace.spans = [] then begin
    print_endline "  FAIL: the traced run recorded no spans";
    incr failures
  end;
  if !failures = 0 then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_out = ref None and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME p2p-ladder | gateway-mix | lossy-reliable");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write spans (JSON lines)");
      ("--selfcheck", Arg.Set self, " check against the paper tables");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if !self then exit (selfcheck ());
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some wl ->
      run_workload wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~trace_out:!trace_out
