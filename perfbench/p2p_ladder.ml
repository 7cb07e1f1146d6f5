(* p2p-ladder: two nodes on one network, default Config, the Madeleine
   Api. Closed-loop ping-pongs (one message in flight; each side waits
   for the reply) over SISCI and over BIP, up the Harness.message_sizes
   ladder from 4 B to 1 MB, small rungs getting more round trips.

   Two parts per fabric:
   - calibration: fresh worlds running exactly the Fig. 4/5 measurement
     at 4 B and 1 MB (the sweep's iteration counts), giving the paper's
     rows and, when traced, the simulated time inside each Api call;
   - the ladder: one world whose message sizes are drawn, per round
     trip, uniformly between a rung and the next (rungs up to 4 kB, 4x
     apart) or within an eighth above the rung (larger rungs), seeded;
     it gives the latency class (rungs up to 4 kB) and the bulk class
     (rungs from 64 kB).

   All the work sits in the per-message control path (Api -> BMM ->
   Switch/TM -> PMM -> driver) and the per-byte PIO/DMA path through
   the PCI fluid; no Vchannel, gateway, scheduler or reliability code
   runs. *)

module H = Harness
module Mad = Madeleine.Api
module Channel = Madeleine.Channel
module Engine = Marcel.Engine
module Time = Marcel.Time

type fabric = {
  fname : string;
  driver :
    Engine.t -> Simnet.Fabric.t -> Simnet.Node.t list -> Madeleine.Driver.t;
  link : Simnet.Netparams.link;
  named_world : unit -> H.world;  (** the Harness builder the figures use *)
}

let fabrics =
  [
    {
      fname = "sisci";
      driver = H.sisci_driver;
      link = Simnet.Netparams.sci;
      named_world = (fun () -> H.sisci_world ());
    };
    {
      fname = "bip";
      driver = H.bip_driver;
      link = Simnet.Netparams.myrinet;
      named_world = (fun () -> H.bip_world ());
    };
  ]

let rungs = Array.of_list H.message_sizes
let round_trips r = if r <= 4096 then 300 else if r <= 32768 then 30 else 4
let latency_class r = r <= 4096
let bulk_class r = r >= 65536

(* The Fig. 4/5 points and their sweep iteration counts. *)
let calib_points = [ ("4B", 4, 20); ("1MB", 1 lsl 20, 3) ]

type inputs = {
  msgs : Bytes.t array;  (** ladder payloads, in send order *)
  rung : int array;  (** rung of each ladder message *)
  calib : (string * Bytes.t * int) list;  (** label, payload, iterations *)
  raw_bip_4b : Time.span;  (** Fig. 5 raw-BIP baseline at 4 B *)
}

let prepare ~seed =
  let rng = Work.rng_for ~seed (-1) in
  let sizes = ref [] and rung = ref [] in
  Array.iteri
    (fun k r ->
      let next = if latency_class r then rungs.(k + 1) else r + (r / 8) in
      for _ = 1 to round_trips r do
        sizes := (r + Simnet.Rng.int rng (next - r)) :: !sizes;
        rung := r :: !rung
      done)
    rungs;
  let sizes = Array.of_list (List.rev !sizes) in
  {
    msgs = Array.mapi (fun id size -> Work.payload ~seed ~id ~size) sizes;
    rung = Array.of_list (List.rev !rung);
    calib =
      List.mapi
        (fun k (label, size, iters) ->
          (label, Work.payload ~seed ~id:(Array.length sizes + k) ~size, iters))
        calib_points;
    raw_bip_4b = H.raw_bip_pingpong ~bytes_count:4 ~iters:20;
  }

(* ------------------------------------------------------------------ *)
(* Traced Api calls *)

let mad_send ~engine ~tag ep ~remote ~msg data =
  Trace.with_span ~engine ~tag ~msg ~layer:"app" "send" (fun parent ->
      let call name f = Trace.call ~engine ~parent ~tag ~msg ~layer:"api" name f in
      let oc = call "begin_packing" (fun () -> Mad.begin_packing ep ~remote) in
      call "pack" (fun () -> Mad.pack oc data);
      call "end_packing" (fun () -> Mad.end_packing oc))

let mad_recv ~engine ~tag ep ~remote ~msg sink =
  Trace.with_span ~engine ~tag ~msg ~layer:"app" "recv" (fun parent ->
      let call name f = Trace.call ~engine ~parent ~tag ~msg ~layer:"api" name f in
      let ic = call "begin_unpacking" (fun () -> Mad.begin_unpacking_from ep ~remote) in
      call "unpack" (fun () -> Mad.unpack ic sink);
      call "end_unpacking" (fun () -> Mad.end_unpacking ic))

(* Closed-loop ping-pong of [msgs] between ranks 0 and 1: rank 1 checks
   each message and echoes it, rank 0 checks the echo. [on_oneway i dt]
   gets the simulated one-way time of each direction delivered intact.
   Returns the simulated span of the whole exchange. *)
let pingpong o (w : H.world) ~tag_of ~msg_of ~on_oneway msgs =
  let engine = w.H.engine in
  let ep0 = Channel.endpoint w.H.channel ~rank:0 in
  let ep1 = Channel.endpoint w.H.channel ~rank:1 in
  let sent_at = ref 0 and started = ref 0 and finished = ref 0 in
  Engine.spawn engine ~name:"ping" (fun () ->
      started := Engine.now engine;
      Array.iteri
        (fun i data ->
          let tag = tag_of i and msg = msg_of i in
          let sink = Bytes.create (Bytes.length data) in
          sent_at := Engine.now engine;
          mad_send ~engine ~tag ep0 ~remote:1 ~msg data;
          mad_recv ~engine ~tag ep0 ~remote:1 ~msg sink;
          if Work.check o ~expected:data ~got:sink then
            on_oneway i (Engine.now engine - !sent_at))
        msgs;
      finished := Engine.now engine);
  Engine.spawn engine ~name:"pong" (fun () ->
      Array.iteri
        (fun i data ->
          let tag = tag_of i and msg = msg_of i in
          let sink = Bytes.create (Bytes.length data) in
          mad_recv ~engine ~tag ep1 ~remote:0 ~msg sink;
          if Work.check o ~expected:data ~got:sink then
            on_oneway i (Engine.now engine - !sent_at);
          sent_at := Engine.now engine;
          mad_send ~engine ~tag ep1 ~remote:0 ~msg sink)
        msgs);
  o.Work.attempted <- o.Work.attempted + (2 * Array.length msgs);
  Work.run o engine;
  o.Work.makespan <- o.Work.makespan + Engine.now engine;
  !finished - !started

(* ------------------------------------------------------------------ *)

(* The Fig. 4/5 measurement of one point: one-way time as the ping-pong
   average, in integer nanoseconds exactly as Harness.mad_pingpong. *)
let calibrate o f (label, data, iters) =
  let w = Work.build o (f.fname ^ "_world") f.named_world in
  let msgs = Array.make iters data in
  let id = Work.id_of data in
  let span =
    pingpong o w
      ~tag_of:(fun _ -> f.fname ^ "." ^ label)
      ~msg_of:(fun _ -> id)
      ~on_oneway:(fun _ _ -> ())
      msgs
  in
  span / (2 * iters)

let ladder o inp f =
  let nodes = ref [] in
  let w =
    Work.build o "make_world" (fun () ->
        H.make_world ~n:2
          (fun e fab ns ->
            nodes := ns;
            f.driver e fab ns)
          f.link)
  in
  let on_oneway i dt =
    let us = Work.us_of_ns dt and r = inp.rung.(i) in
    if latency_class r then Stats.add o.Work.lat us;
    if bulk_class r then begin
      Stats.add o.Work.bulk us;
      o.Work.bulk_bytes <- o.Work.bulk_bytes + Bytes.length inp.msgs.(i)
    end
  in
  ignore
    (pingpong o w
       ~tag_of:(fun i -> Printf.sprintf "%s.rung%d" f.fname inp.rung.(i))
       ~msg_of:Fun.id ~on_oneway inp.msgs);
  (Work.pci_bytes !nodes, Work.tm_metrics [ (f.fname, w.H.channel) ])

let run inp =
  let o = Work.outcome () in
  let layer = ref [] in
  let add k v = layer := (k, v) :: !layer in
  let pci = ref 0.0 in
  List.iter
    (fun f ->
      (match List.map (calibrate o f) inp.calib with
      | [ lat4; lat1m ] ->
          add (f.fname ^ "_lat_us") (Time.to_us lat4);
          add (f.fname ^ "_bw_mb_s") (Time.rate_mb_s ~bytes_count:(1 lsl 20) lat1m);
          if f.fname = "bip" then
            add "api.bip_overhead_vs_raw_us"
              (Time.to_us lat4 -. Time.to_us inp.raw_bip_4b)
      | _ -> assert false);
      let p, tm = ladder o inp f in
      pci := !pci +. p;
      List.iter (fun (k, v) -> add k v) tm)
    fabrics;
  add "simnet.pci_bytes_per_payload_byte"
    (Work.ratio !pci (float_of_int o.Work.bytes));
  (o, List.rev !layer)

(* Per-call simulated time, from the calibration spans of a traced run. *)
let traced_layers () =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun (label, _, _) ->
          let tag = f.fname ^ "." ^ label in
          List.map
            (fun call ->
              ( Printf.sprintf "api.%s.%s_us" tag call,
                Trace.median_us ~layer:"api" ~name:call ~tag ))
            [
              "begin_packing";
              "pack";
              "end_packing";
              "begin_unpacking";
              "unpack";
              "end_unpacking";
            ])
        calib_points)
    fabrics
