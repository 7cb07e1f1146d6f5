(* Simulator throughput ("simspeed"): host events per host wall-clock
   second. The event counts are deterministic (they replay the same
   simulated schedule every run); only the wall time varies, so each
   scenario runs [reps] times and reports the fastest — the
   least-disturbed run is the best estimate of the simulator's actual
   speed on an idle machine. See docs/MODEL.md, "Host performance
   model". *)

module H = Harness
module Vc = Madeleine.Vchannel

type row = {
  scenario : string;
  events : int;
  fingerprint : int;
  delivery_fp : int;
  events_per_s : float;
}

(* What one scenario run leaves behind: its event count and the
   combined schedule and delivery fingerprints of the worlds it ran. *)
type tally = { t_events : int; t_fingerprint : int; t_delivery_fp : int }

let no_tally = { t_events = 0; t_fingerprint = 0; t_delivery_fp = 0 }

let add_tally a b =
  {
    t_events = a.t_events + b.t_events;
    t_fingerprint = (a.t_fingerprint * 1_000_003) + b.t_fingerprint;
    t_delivery_fp = (a.t_delivery_fp * 1_000_003) + b.t_delivery_fp;
  }

let tally_of engine =
  {
    t_events = Marcel.Engine.events_processed engine;
    t_fingerprint = Marcel.Engine.fingerprint engine;
    t_delivery_fp = Marcel.Engine.delivery_fingerprint engine;
  }

let reps = 6
let json_file = "BENCH_simspeed.json"

(* The simulated times some scenarios record for the deterministic
   gates below; one record per run, so nothing is shared across runs. *)
type sim_us = {
  mutable staged : float;
  mutable zero_copy : float;
  mutable fifo : float;
  mutable aggreg : float;
}

(* The parallel sweep scenario: a fixed batch of identical, independent
   SISCI ping-pong worlds fanned out over a Parsim pool of up to 4
   domains, capped at the measuring host's core count so the row never
   measures oversubscription. Aggregate events/s across the domains is
   the metric; comparing the "pooled" line against the "serial" line
   gives the sweep speedup on the measuring host. The world count is
   pinned and the labels are fixed, so both stay machine-independent;
   the domain count lands in the JSON's [domains] field. *)
let parallel_sweep_worlds = 8
let parallel_sweep_domains = min 4 (Domain.recommended_domain_count ())
let parallel_serial_label = "parallel sweep 8x sisci serial"
let parallel_domains_label = "parallel sweep 8x sisci pooled"

let parallel_sweep_events pool =
  let jobs =
    List.init parallel_sweep_worlds (fun i ->
        ( Printf.sprintf "sisci-world-%d" i,
          fun () ->
            let w = H.sisci_world () in
            ignore (H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:4);
            tally_of w.H.engine ))
  in
  List.fold_left add_tally no_tally (Parsim.run pool jobs)

(* The SchedOpt workload: 10 000 concurrent small-message logical flows
   (100 sender threads x 100 one-message flows of 64 B) crossing the
   two physical connections of the two-cluster world through the
   gateway. With sched=fifo every message pays its own wire packet and
   its own ~50 us gateway step; sched=aggreg merges the trains into a
   few dozen aggregates. The simulated finish times of the two variants
   give the aggregation goodput ratio recorded in the JSON and gated
   below. *)
let sched_flows_senders = 100
let sched_flows_msgs = 100
let sched_flows_size = 64
let sched_fifo_label = "10k flows 64B sched=fifo"
let sched_aggreg_label = "10k flows 64B sched=aggreg"

let sched_flows_events sim ~aggreg =
  let w = H.two_cluster_world () in
  let vc =
    Vc.create w.H.cw_session ~mtu:16384
      ?sched:(if aggreg then Some (Madeleine.Sched.aggreg ()) else None)
      [ w.H.ch_sci; w.H.ch_myri ]
  in
  let total = sched_flows_senders * sched_flows_msgs in
  let fin = ref 0 in
  let out = Bytes.create sched_flows_size in
  for s = 0 to sched_flows_senders - 1 do
    Marcel.Engine.spawn w.H.cw_engine ~name:(Printf.sprintf "s%d" s)
      (fun () ->
        for i = 0 to sched_flows_msgs - 1 do
          let flow = if aggreg then (s * sched_flows_msgs) + i + 1 else 0 in
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:2 in
          Vc.pack oc out;
          Vc.end_packing oc
        done)
  done;
  let finish = ref Marcel.Time.zero in
  Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
      let sink = Bytes.create sched_flows_size in
      for _ = 1 to total do
        let ic = Vc.begin_unpacking vc ~me:2 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        incr fin
      done;
      finish := Marcel.Engine.now w.H.cw_engine);
  Marcel.Engine.run w.H.cw_engine;
  assert (!fin = total);
  let us = Marcel.Time.to_us !finish in
  if aggreg then sim.aggreg <- us else sim.fifo <- us;
  tally_of w.H.cw_engine

(* The zero-copy rendezvous scenarios: the same 1 MB ping-pong as the
   staged line, with the long-message path switched on — once with a
   warm pin-down cache and once with the cache disabled (a cold pin on
   every send). The simulated one-way times of all three variants are
   deterministic; the warm/staged ratio is the zero-copy bandwidth gain
   recorded in the JSON and gated below. *)
let rdv_zero_label = "sisci 1MB rendezvous zero-copy"
let rdv_cold_label = "sisci 1MB rendezvous cold-cache"

let sisci_1mb_events ?entries () =
  let config =
    Option.map
      (fun entries ->
        {
          Madeleine.Config.default with
          Madeleine.Config.rendezvous_threshold = Some 32768;
          regcache_entries = entries;
        })
      entries
  in
  let w = H.sisci_world ?config () in
  let t = H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:4 in
  (tally_of w.H.engine, Marcel.Time.to_us t)

(* Four 1 MB messages from the SCI side to the Myrinet side through the
   gateway, optionally with the credit plane and a bounded gateway pool
   armed. *)
let gateway_stream_events ?credits ?gw_pool () =
  let w = H.two_cluster_world () in
  let vc =
    Vc.create w.H.cw_session ~mtu:16384 ?credits ?gw_pool
      [ w.H.ch_sci; w.H.ch_myri ]
  in
  let msgs = 4 in
  let fin = ref 0 in
  let out = Bytes.create (1 lsl 20) in
  let sink = Bytes.create (1 lsl 20) in
  Marcel.Engine.spawn w.H.cw_engine ~name:"s" (fun () ->
      for _ = 1 to msgs do
        let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
        Vc.pack oc out;
        Vc.end_packing oc
      done);
  Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
      for _ = 1 to msgs do
        let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        incr fin
      done);
  Marcel.Engine.run w.H.cw_engine;
  assert (!fin = msgs);
  tally_of w.H.cw_engine

let scenarios sim : (string * (unit -> tally)) list =
  [
    ( "sisci 1MB ping-pong",
      fun () ->
        let events, us = sisci_1mb_events () in
        sim.staged <- us;
        events );
    ( rdv_zero_label,
      fun () ->
        let events, us = sisci_1mb_events ~entries:8 () in
        sim.zero_copy <- us;
        events );
    (rdv_cold_label, fun () -> fst (sisci_1mb_events ~entries:0 ()));
    ("gateway forwarding 1MB @16kB", fun () -> gateway_stream_events ());
    (* The chaos workload with no fault plane attached: guards the
       fault-free fast path against overhead from the fault machinery
       (the dispatch is a single [Fabric.faults] check). *)
    ( "chaos clean-path tcp pingpong",
      fun () ->
        List.fold_left
          (fun acc e -> add_tally acc (tally_of e))
          no_tally (Chaos.clean_path_engines ()) );
    (* The windowed reliable protocol with a fault plane attached but
       inert: guards the fault-free fast path of the selective-repeat sender
       (sequencing, ack bookkeeping, RTO arming) — and, next to the
       stop-and-wait line, shows what the window machinery itself
       costs when nothing is ever retransmitted. *)
    ( "reliable tcp inert window=8",
      fun () -> tally_of (Chaos.inert_window_engine ~window:8) );
    ( "reliable tcp inert stop-and-wait",
      fun () -> tally_of (Chaos.inert_window_engine ~window:1) );
    (* The credit plane armed but never binding: the window is generous
       enough that no sender ever stalls, so these guard the cost the
       credit bookkeeping (shipped/granted counters, grant emission on
       consumption) adds to the fast path. The credits-off path itself
       is guarded by the two scenarios above plus the ping-pong ones —
       unset, no credit state exists at all. *)
    ( "inert-credit vchannel pingpong",
      fun () ->
        let w = H.two_cluster_world () in
        let vc =
          Vc.create w.H.cw_session ~mtu:16384 ~credits:64 [ w.H.ch_sci ]
        in
        let iters = 48 in
        let ball = Bytes.create 16384 in
        Marcel.Engine.spawn w.H.cw_engine ~name:"s" (fun () ->
            for _ = 1 to iters do
              let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
              Vc.pack oc ball;
              Vc.end_packing oc;
              let ic = Vc.begin_unpacking_from vc ~me:0 ~remote:1 in
              Vc.unpack ic ball;
              Vc.end_unpacking ic
            done);
        Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
            let pong = Bytes.create 16384 in
            for _ = 1 to iters do
              let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
              Vc.unpack ic pong;
              Vc.end_unpacking ic;
              let oc = Vc.begin_packing vc ~me:1 ~remote:0 in
              Vc.pack oc pong;
              Vc.end_packing oc
            done);
        Marcel.Engine.run w.H.cw_engine;
        tally_of w.H.cw_engine );
    ( "inert-credit gateway forwarding",
      fun () -> gateway_stream_events ~credits:256 ~gw_pool:64 () );
    (sched_fifo_label, fun () -> sched_flows_events sim ~aggreg:false);
    (sched_aggreg_label, fun () -> sched_flows_events sim ~aggreg:true);
  ]

(* The fastest of [reps] runs; the tally is the same every run. *)
let measure f =
  let tally = ref no_tally and best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    tally := f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  (!tally, Float.max 1e-9 !best)

let read_baseline file =
  Json.read_file file (fun doc ->
      List.map
        (fun r ->
          {
            scenario = Json.to_str (Json.member "scenario" r);
            events = Json.to_int (Json.member "events" r);
            fingerprint = Json.to_int (Json.member "fingerprint" r);
            delivery_fp = Json.to_int (Json.member "delivery_fp" r);
            events_per_s = Json.to_number (Json.member "events_per_s" r);
          })
        (Json.to_list (Json.member "simspeed" doc)))

let tolerance = 0.20
let verdict ok text =
  ((if ok then "  GATE OK:   " else "  GATE FAIL: ") ^ text, ok)

(* One verdict per measured row. Event counts and fingerprints replay a
   deterministic schedule, so any difference means the simulation
   itself changed; a different delivery fingerprint means a simulated
   delivery instant moved. A baseline that matches none of the rows compares
   nothing, so it fails the gate rather than passing it vacuously. *)
let check_baseline ~baseline rows =
  let base_of row =
    List.find_opt (fun b -> b.scenario = row.scenario) baseline
  in
  let check row =
    match base_of row with
    | None ->
        (Printf.sprintf "  GATE WARN: %S not in baseline" row.scenario, true)
    | Some base ->
        let ratio = row.events_per_s /. Float.max 1e-9 base.events_per_s in
        let same_schedule = row.fingerprint = base.fingerprint in
        let same_deliveries = row.delivery_fp = base.delivery_fp in
        verdict
          (row.events = base.events && same_schedule && same_deliveries
          && ratio >= 1.0 -. tolerance)
          (Printf.sprintf
             "%-34s %8.2f Mev/s vs baseline %8.2f Mev/s (%.0f%% of baseline, \
              floor %.0f%%)%s"
             row.scenario (row.events_per_s /. 1e6) (base.events_per_s /. 1e6)
             (ratio *. 100.) ((1.0 -. tolerance) *. 100.)
             (if row.events = base.events then ""
              else
                Printf.sprintf
                  "; %d events vs baseline %d (the simulated schedule changed)"
                  row.events base.events)
             ^ (if same_schedule then ""
                else
                  Printf.sprintf
                    "; fingerprint %d vs baseline %d (the simulated schedule \
                     changed)"
                    row.fingerprint base.fingerprint)
             ^
             if same_deliveries then ""
             else
               Printf.sprintf
                 "; delivery_fp %d vs baseline %d (a simulated delivery \
                  moved)"
                 row.delivery_fp base.delivery_fp)
  in
  List.map check rows
  @
  if List.exists (fun row -> base_of row <> None) rows then []
  else [ ("  GATE ERROR: no measured scenario is in the baseline", false) ]

(* Aggregation must buy goodput on the 10k-flow workload and the
   warm-cache zero-copy path must buy bandwidth over the staged path at
   1 MB. Both ratios are simulated, so these floors always bind. *)
let aggregation_floor = 2.0
let rendezvous_floor = 1.2

let run ~json ~baseline =
  match Option.map read_baseline baseline with
  | exception Json.Error msg ->
      Printf.printf "simspeed: baseline unreadable: %s\n%!" msg;
      false
  | baseline ->
      print_string
        (Sweeps.section
           "Simulator throughput -- discrete events per host wall-clock second"
           "");
      let sim = { staged = 0.; zero_copy = 0.; fifo = 0.; aggreg = 0. } in
      let results =
        Parsim.with_pool ~jobs:parallel_sweep_domains (fun pool ->
            List.map
              (fun (label, f) ->
                let tally, wall = measure f in
                let events = tally.t_events in
                let rate = float_of_int events /. wall in
                Printf.printf "  %-34s %9d events, %8.2f Mev/s\n%!" label events
                  (rate /. 1e6);
                ( {
                    scenario = label;
                    events;
                    fingerprint = tally.t_fingerprint;
                    delivery_fp = tally.t_delivery_fp;
                    events_per_s = rate;
                  },
                  wall ))
              (scenarios sim
              @ [
                  ( parallel_serial_label,
                    fun () -> Parsim.with_pool ~jobs:1 parallel_sweep_events );
                  ( parallel_domains_label,
                    fun () -> parallel_sweep_events pool );
                ]))
      in
      let rows = List.map fst results in
      let rate_of l =
        (List.find (fun r -> r.scenario = l) rows).events_per_s
      in
      let speedup =
        rate_of parallel_domains_label
        /. Float.max 1e-9 (rate_of parallel_serial_label)
      in
      Printf.printf
        "  parallel sweep speedup: %.2fx over serial (%d domains, %d \
         core(s))\n%!"
        speedup parallel_sweep_domains
        (Domain.recommended_domain_count ());
      let goodput_ratio =
        if sim.aggreg > 0.0 then sim.fifo /. sim.aggreg else 0.0
      in
      Printf.printf
        "  aggregation goodput: %.2fx over fifo (fifo %.0f us, aggreg %.0f us \
         simulated)\n%!"
        goodput_ratio sim.fifo sim.aggreg;
      let rendezvous_gain =
        if sim.zero_copy > 0.0 then sim.staged /. sim.zero_copy else 0.0
      in
      Printf.printf
        "  zero-copy rendezvous: %.2fx over staged at 1 MB (staged %.0f us, \
         zero-copy %.0f us one-way simulated)\n%!"
        rendezvous_gain sim.staged sim.zero_copy;
      if json then begin
        let extra =
          [
            ( parallel_domains_label,
              [
                ("domains", Json.Int parallel_sweep_domains);
                ("speedup_vs_serial", Json.Float (speedup, 2));
              ] );
            ( sched_aggreg_label,
              [ ("goodput_ratio_vs_fifo", Json.Float (goodput_ratio, 2)) ] );
            ( rdv_zero_label,
              [ ("sim_bw_gain_vs_staged", Json.Float (rendezvous_gain, 2)) ] );
          ]
        in
        let record (r, wall) =
          Json.Obj
            ([
               ("scenario", Json.Str r.scenario);
               ("events", Json.Int r.events);
               ("fingerprint", Json.Int r.fingerprint);
               ("delivery_fp", Json.Int r.delivery_fp);
               ("wall_s", Json.Float (wall, 6));
               ("events_per_s", Json.Float (r.events_per_s, 1));
             ]
            @ Option.value (List.assoc_opt r.scenario extra) ~default:[])
        in
        let oc = open_out json_file in
        Printf.fprintf oc "{ \"simspeed\": %s }\n"
          (Json.to_string (Json.List (List.map record results)));
        close_out oc;
        Printf.printf "  wrote %s\n%!" json_file
      end;
      match baseline with
      | None -> true
      | Some baseline ->
          (* The speedup floor scales with the pool: 2.5x at 4 domains,
             1.5x at 2-3. A single-core host has no parallelism to gate. *)
          let speedup_gate =
            if parallel_sweep_domains < 2 then
              [
                ( "  GATE SKIP: speedup floor needs >= 2 cores, host has 1",
                  true );
              ]
            else
              let floor = if parallel_sweep_domains >= 4 then 2.5 else 1.5 in
              [
                verdict (speedup >= floor)
                  (Printf.sprintf
                     "parallel sweep speedup %.2fx on %d domains (floor %.1fx)"
                     speedup parallel_sweep_domains floor);
              ]
          in
          let gates =
            check_baseline ~baseline rows
            @ speedup_gate
            @ [
                verdict
                  (goodput_ratio >= aggregation_floor)
                  (Printf.sprintf
                     "aggregation goodput %.2fx on the 10k-flow workload \
                      (floor %.1fx)"
                     goodput_ratio aggregation_floor);
                verdict
                  (rendezvous_gain >= rendezvous_floor)
                  (Printf.sprintf
                     "zero-copy rendezvous %.2fx over staged at 1 MB (floor \
                      %.1fx)"
                     rendezvous_gain rendezvous_floor);
              ]
          in
          List.iter (fun (line, _) -> print_endline line) gates;
          let ok = List.for_all snd gates in
          if not ok then print_string "\nsimspeed: regression gate FAILED.\n";
          ok
