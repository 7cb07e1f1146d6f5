(* What every workload shares: seeded payloads stamped with their
   message id, the per-repetition outcome (attempted, delivered
   bit-identical, failed worlds by exception, latency samples, host
   timings), timed world building and running, and the traced wrappers
   around the Vchannel calls. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Rng = Simnet.Rng
module Vc = Madeleine.Vchannel

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

(* The splitmix64 finalizer: neighbouring inputs give unrelated
   outputs. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* An independent generator for item [k] of stream [seed]. *)
let rng_for ~seed k =
  Rng.create ~seed:(mix64 (Int64.add (mix64 (Int64.of_int seed)) (Int64.of_int k)))

(* Seeded bytes whose first (up to) 8 bytes hold the message id,
   little-endian. *)
let payload ~seed ~id ~size =
  let r = rng_for ~seed id in
  let b = Bytes.create size in
  let i = ref 0 in
  while !i + 8 <= size do
    Bytes.set_int64_le b !i (Rng.next_int64 r);
    i := !i + 8
  done;
  for j = !i to size - 1 do
    Bytes.set b j (Char.chr (Rng.int r 256))
  done;
  for k = 0 to min 8 size - 1 do
    Bytes.set b k (Char.chr ((id lsr (8 * k)) land 0xff))
  done;
  b

let id_of b =
  let id = ref 0 in
  for k = min 8 (Bytes.length b) - 1 downto 0 do
    id := (!id lsl 8) lor Char.code (Bytes.get b k)
  done;
  !id

(* ------------------------------------------------------------------ *)
(* One repetition's outcome *)

type outcome = {
  mutable attempted : int;  (** messages the workload set out to deliver *)
  mutable delivered : int;  (** ... that arrived bit-identical *)
  mutable corrupted : int;  (** ... that arrived with wrong bytes *)
  mutable failures : (string * int) list;  (** failed worlds by exception *)
  mutable bytes : int;  (** payload bytes delivered bit-identical *)
  mutable makespan : int;  (** simulated ns, summed over worlds *)
  lat : Stats.t;  (** one-way µs of the latency-class messages *)
  bulk : Stats.t;  (** one-way µs of the bulk-class messages *)
  mutable bulk_bytes : int;
  mutable setup_s : float;  (** host: world building *)
  mutable run_s : float;  (** host: inside Engine.run *)
  mutable events : int;
  mutable worlds : int;
  mutable no_route_retries : int;  (** begin_packing retried for want of a route *)
  mutable scaled_run_s : float;  (** [run_s], at reference host speed *)
  mutable scale_sum : float;
  mutable scale_n : int;
}

let outcome () =
  {
    attempted = 0;
    delivered = 0;
    corrupted = 0;
    failures = [];
    bytes = 0;
    makespan = 0;
    lat = Stats.create ();
    bulk = Stats.create ();
    bulk_bytes = 0;
    setup_s = 0.0;
    run_s = 0.0;
    events = 0;
    worlds = 0;
    no_route_retries = 0;
    scaled_run_s = 0.0;
    scale_sum = 0.0;
    scale_n = 0;
  }

(* Records one received message: [expected] is what the sender packed. *)
let check o ~expected ~got =
  if Bytes.equal expected got then begin
    o.delivered <- o.delivered + 1;
    o.bytes <- o.bytes + Bytes.length got;
    true
  end
  else begin
    o.corrupted <- o.corrupted + 1;
    false
  end

let failed o = o.attempted - o.delivered

(* The exceptions a world may legitimately die of; anything else is a
   bug and makes the run incorrect. *)
let expected_failures = [ "Peer_unreachable"; "Partitioned"; "Timeout"; "Stalled" ]

let failure_name = function
  | Madeleine.Config.Peer_unreachable _ -> "Peer_unreachable"
  | Vc.Partitioned _ -> "Partitioned"
  | Tcpnet.Timeout _ -> "Timeout"
  | Engine.Stalled _ -> "Stalled"
  | e -> "other: " ^ Printexc.to_string e

let unexpected_failures o =
  List.filter (fun (n, _) -> not (List.mem n expected_failures)) o.failures

(* Builds one world, timed as set-up. *)
let build o name f =
  let t0 = Unix.gettimeofday () in
  let w = Trace.call ~layer:"harness" name f in
  o.setup_s <- o.setup_s +. (Unix.gettimeofday () -. t0);
  o.worlds <- o.worlds + 1;
  w

(* The host's current slowness relative to a reference host (see
   Probe); 1.0 unless the benchmark installs a probe. *)
let host_scale = ref (fun () -> 1.0)

(* Mean host scale seen during the repetition. *)
let mean_scale o = if o.scale_n = 0 then 1.0 else o.scale_sum /. float_of_int o.scale_n

(* Runs one world to quiescence, timed, between two readings of the host
   scale; a world that dies is counted by exception name and the run
   moves on. *)
let run o engine =
  let before = !host_scale () in
  let t0 = Unix.gettimeofday () in
  (match Trace.call ~engine ~layer:"marcel" "Engine.run" (fun () -> Engine.run engine) with
  | () -> ()
  | exception e ->
      let n = failure_name e in
      let c = try List.assoc n o.failures with Not_found -> 0 in
      o.failures <- (n, c + 1) :: List.remove_assoc n o.failures);
  let dt = Unix.gettimeofday () -. t0 in
  let after = !host_scale () in
  o.run_s <- o.run_s +. dt;
  o.scaled_run_s <- o.scaled_run_s +. (dt /. ((before +. after) /. 2.0));
  o.scale_sum <- o.scale_sum +. before +. after;
  o.scale_n <- o.scale_n + 2;
  o.events <- o.events + Engine.events_processed engine

(* ------------------------------------------------------------------ *)
(* Traced Vchannel calls: one root span per message, one child per
   call. *)

(* On a reliable vchannel, begin_packing raises Partitioned at once while
   a false suspicion has withdrawn the only route; nothing has been sent
   yet, so the application waits and retries, for up to
   [no_route_retries] x [no_route_wait]. *)
let no_route_retries = 2000
let no_route_wait = Time.us 100.0

let vc_send o ?flow ?(tag = "") vc ~me ~remote ~msg data =
  let engine = Vc.engine vc in
  let rec open_ tries =
    match Vc.begin_packing ?flow vc ~me ~remote with
    | oc -> oc
    | exception Vc.Partitioned _ when tries < no_route_retries ->
        o.no_route_retries <- o.no_route_retries + 1;
        Engine.sleep no_route_wait;
        open_ (tries + 1)
  in
  Trace.with_span ~engine ~tag ~msg ~layer:"app" "send" (fun parent ->
      let call name f = Trace.call ~engine ~parent ~tag ~msg ~layer:"vchannel" name f in
      let oc = call "begin_packing" (fun () -> open_ 0) in
      call "pack" (fun () -> Vc.pack oc data);
      call "end_packing" (fun () -> Vc.end_packing oc))

(* Receives the next message ([from] one rank, or any source), unpacking
   it into [sink_for flow]; returns that buffer. *)
let vc_recv ?(tag = "") ?from vc ~me ~sink_for =
  let engine = Vc.engine vc in
  Trace.with_span ~engine ~tag ~msg_of:id_of ~layer:"app" "recv" (fun parent ->
      let call name f = Trace.call ~engine ~parent ~tag ~layer:"vchannel" name f in
      let ic =
        call "begin_unpacking" (fun () ->
            match from with
            | None -> Vc.begin_unpacking vc ~me
            | Some remote -> Vc.begin_unpacking_from vc ~me ~remote)
      in
      let sink = sink_for (Vc.remote_flow ic) in
      call "unpack" (fun () -> Vc.unpack ic sink);
      call "end_unpacking" (fun () -> Vc.end_unpacking ic);
      sink)

(* ------------------------------------------------------------------ *)
(* Layer counters *)

(* Transmission-module names by Channel.tm_usage index, per fabric. *)
let tm_names = function
  | "sisci" -> [ "short"; "regular"; "dma"; "rdv" ]
  | "bip" -> [ "short"; "long" ]
  | "tcp" -> [ "tcp" ]
  | _ -> []

(* Adds up same-named metrics across lists. *)
let sum_metrics lists =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v +. try Hashtbl.find tbl k with Not_found -> 0.0)))
    lists;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Packets and bytes per transmission module, summed over the given
   (fabric, channel) pairs. *)
let tm_metrics channels =
  sum_metrics
    (List.map
       (fun (fabric, ch) ->
         List.concat_map
           (fun (idx, packets, bytes) ->
             match List.nth_opt (tm_names fabric) idx with
             | None -> []
             | Some tm ->
                 let key = fabric ^ "." ^ tm in
                 [
                   ("channel.tm_packets." ^ key, float_of_int packets);
                   ("channel.tm_bytes." ^ key, float_of_int bytes);
                 ])
           (Madeleine.Channel.tm_usage ch))
       channels)

let pci_bytes nodes =
  List.fold_left
    (fun acc n -> acc +. Simnet.Fluid.total_bytes n.Simnet.Node.pci)
    0.0 nodes

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Simulated end-to-end metrics shared by every workload *)

let us_of_ns ns = float_of_int ns /. 1000.0

let rate_mb_s ~bytes ~us = if us <= 0.0 then 0.0 else float_of_int bytes /. us

let e2e o =
  [
    ("lat_p50_us", Stats.quantile o.lat 0.5);
    ("lat_p99_us", Stats.quantile o.lat 0.99);
    ("goodput_mb_s", rate_mb_s ~bytes:o.bytes ~us:(us_of_ns o.makespan));
    ("bulk_bw_mb_s", rate_mb_s ~bytes:o.bulk_bytes ~us:(Stats.sum o.bulk));
  ]
