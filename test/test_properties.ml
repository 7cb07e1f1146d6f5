(* Property-based tests: end-to-end invariants of the whole stack under
   randomly generated message structures.

   The central invariant is the paper's contract: for ANY sequence of
   packed blocks — any sizes, any send/receive mode combination — a
   strictly symmetric unpack sequence delivers exactly the packed bytes,
   on every protocol, through every TM/BMM combination the Switch picks,
   including TM changes mid-message, slot chunking, aggregation and
   express flushes. *)

module Engine = Marcel.Engine
module Mad = Madeleine.Api
module Channel = Madeleine.Channel
module Iface = Madeleine.Iface
module H = Harness

(* A generated message: field sizes and mode pairs. *)
type field = { f_len : int; f_send : Iface.send_mode; f_recv : Iface.recv_mode }

let field_gen =
  QCheck.Gen.(
    let* f_len =
      oneof
        [
          int_range 0 16; (* tiny, aggregated *)
          int_range 17 1023; (* short-TM sized *)
          int_range 1024 9000; (* around slot boundaries *)
          int_range 9001 80_000; (* multi-slot / rendezvous *)
        ]
    in
    let* f_send =
      oneofl [ Iface.Send_safer; Iface.Send_later; Iface.Send_cheaper ]
    in
    let* f_recv = oneofl [ Iface.Receive_express; Iface.Receive_cheaper ] in
    return { f_len; f_send; f_recv })

let message_gen = QCheck.Gen.(list_size (int_range 1 12) field_gen)

let message_arbitrary =
  QCheck.make message_gen
    ~print:(fun fields ->
      String.concat ";"
        (List.map
           (fun f ->
             Printf.sprintf "%d%s%s" f.f_len
               (match f.f_send with
               | Iface.Send_safer -> "S"
               | Iface.Send_later -> "L"
               | Iface.Send_cheaper -> "C")
               (match f.f_recv with
               | Iface.Receive_express -> "E"
               | Iface.Receive_cheaper -> "c"))
           fields))

(* Sends [fields] as one message over [world]'s channel and checks the
   receiver sees exactly the packed bytes. LATER fields are written after
   pack, so they also verify the deferred-read semantics. *)
let roundtrip_ok world fields =
  let ep0 = Channel.endpoint world.H.channel ~rank:0 in
  let ep1 = Channel.endpoint world.H.channel ~rank:1 in
  let rng = Simnet.Rng.create ~seed:99L in
  let payloads =
    List.map
      (fun f ->
        match f.f_send with
        | Iface.Send_later ->
            (* Packed as zeroes, rewritten before end_packing: the
               receiver must see the final value. *)
            (Bytes.make f.f_len '\000', Simnet.Rng.bytes rng f.f_len)
        | Iface.Send_safer | Iface.Send_cheaper ->
            let b = Simnet.Rng.bytes rng f.f_len in
            (b, Bytes.copy b))
      fields
  in
  let ok = ref true in
  Engine.spawn world.H.engine ~name:"sender" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      List.iter2
        (fun f (buf, final) ->
          Mad.pack oc ~s_mode:f.f_send ~r_mode:f.f_recv buf;
          match f.f_send with
          | Iface.Send_later -> Bytes.blit final 0 buf 0 f.f_len
          | Iface.Send_safer ->
              (* SAFER: scribbling must not corrupt the message. *)
              Bytes.fill buf 0 f.f_len '\xFF'
          | Iface.Send_cheaper -> ())
        fields payloads;
      Mad.end_packing oc);
  Engine.spawn world.H.engine ~name:"receiver" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let sinks =
        List.map
          (fun f ->
            let sink = Bytes.create f.f_len in
            Mad.unpack ic ~s_mode:f.f_send ~r_mode:f.f_recv sink;
            sink)
          fields
      in
      Mad.end_unpacking ic;
      List.iter2
        (fun (_, expect) sink -> if not (Bytes.equal expect sink) then ok := false)
        payloads sinks);
  Engine.run world.H.engine;
  !ok

let prop_roundtrip name mk_world =
  QCheck.Test.make
    ~name:(Printf.sprintf "random message roundtrip over %s" name)
    ~count:40 message_arbitrary
    (fun fields -> roundtrip_ok (mk_world ()) fields)

(* Same property through a gateway: the Generic TM's framing and the
   forwarding pipeline must also preserve arbitrary structures. LATER is
   excluded (the generic TM documents eager reads), SAFER behaves like
   CHEAPER there. *)
let vc_field_gen =
  QCheck.Gen.(
    let* f_len = int_range 0 60_000 in
    let* f_recv = oneofl [ Iface.Receive_express; Iface.Receive_cheaper ] in
    return { f_len; f_send = Iface.Send_cheaper; f_recv })

let vc_message_arbitrary =
  QCheck.make
    QCheck.Gen.(
      let* mtu = oneofl [ 4096; 8192; 16384; 32768 ] in
      let* fields = list_size (int_range 1 8) vc_field_gen in
      return (mtu, fields))
    ~print:(fun (mtu, fields) ->
      Printf.sprintf "mtu=%d;[%s]" mtu
        (String.concat ";" (List.map (fun f -> string_of_int f.f_len) fields)))

let prop_vchannel_roundtrip =
  QCheck.Test.make ~name:"random message roundtrip through gateway" ~count:25
    vc_message_arbitrary
    (fun (mtu, fields) ->
      let w = Harness.two_cluster_world () in
      let vc =
        Madeleine.Vchannel.create w.H.cw_session ~mtu [ w.H.ch_sci; w.H.ch_myri ]
      in
      let rng = Simnet.Rng.create ~seed:7L in
      let payloads = List.map (fun f -> Simnet.Rng.bytes rng f.f_len) fields in
      let ok = ref true in
      Engine.spawn w.H.cw_engine ~name:"sender" (fun () ->
          let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
          List.iter2
            (fun f data -> Madeleine.Vchannel.pack oc ~r_mode:f.f_recv data)
            fields payloads;
          Madeleine.Vchannel.end_packing oc);
      Engine.spawn w.H.cw_engine ~name:"receiver" (fun () ->
          let ic =
            Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0
          in
          List.iter2
            (fun f expect ->
              let sink = Bytes.create f.f_len in
              Madeleine.Vchannel.unpack ic ~r_mode:f.f_recv sink;
              if not (Bytes.equal expect sink) then ok := false)
            fields payloads;
          Madeleine.Vchannel.end_unpacking ic);
      Engine.run w.H.cw_engine;
      !ok)

(* MPI matching: messages with random tags received in a random order
   must each land in the right buffer. *)
let prop_mpi_matching =
  QCheck.Test.make ~name:"mpi tag matching under permuted receives" ~count:25
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 8 in
          let* sizes = list_repeat n (int_range 0 5000) in
          let* perm = shuffle_l (List.init n Fun.id) in
          return (sizes, perm))
        ~print:(fun (sizes, perm) ->
          Printf.sprintf "[%s]/[%s]"
            (String.concat ";" (List.map string_of_int sizes))
            (String.concat ";" (List.map string_of_int perm))))
    (fun (sizes, perm) ->
      let module Mpi = Mpilite.Mpi in
      let w = H.make_mpi_world ~n:2 H.Chmad in
      let rng = Simnet.Rng.create ~seed:3L in
      let payloads = List.map (Simnet.Rng.bytes rng) sizes in
      let ok = ref true in
      Engine.spawn w.H.mpi_engine ~name:"sender" (fun () ->
          let c = Mpi.ctx w.H.mpi_world ~rank:0 in
          List.iteri (fun tag data -> Mpi.send c ~dst:1 ~tag data) payloads);
      Engine.spawn w.H.mpi_engine ~name:"receiver" (fun () ->
          let c = Mpi.ctx w.H.mpi_world ~rank:1 in
          List.iter
            (fun tag ->
              let expect = List.nth payloads tag in
              let sink = Bytes.create (Bytes.length expect) in
              let st = Mpi.recv c ~src:0 ~tag sink in
              if st.Mpi.status_len <> Bytes.length expect then ok := false;
              if not (Bytes.equal expect sink) then ok := false)
            perm);
      Engine.run w.H.mpi_engine;
      !ok)

(* TCP byte-stream: any read segmentation reassembles the sent stream. *)
let prop_tcp_segmentation =
  QCheck.Test.make ~name:"tcp reads reassemble any segmentation" ~count:40
    QCheck.(
      make
        Gen.(
          let* writes = list_size (int_range 1 6) (int_range 1 4000) in
          let total = List.fold_left ( + ) 0 writes in
          let* cut = int_range 1 total in
          return (writes, cut))
        ~print:(fun (writes, cut) ->
          Printf.sprintf "[%s] cut=%d"
            (String.concat ";" (List.map string_of_int writes))
            cut))
    (fun (writes, cut) ->
      let engine = Engine.create () in
      let fabric =
        Simnet.Fabric.create engine ~name:"eth"
          ~link:Simnet.Netparams.fast_ethernet
      in
      let net = Tcpnet.make_net engine fabric in
      let mk i =
        let n = Simnet.Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Simnet.Fabric.attach fabric n;
        Tcpnet.attach net n
      in
      let t0 = mk 0 and t1 = mk 1 in
      let c0, c1 = Tcpnet.socketpair t0 t1 in
      let rng = Simnet.Rng.create ~seed:5L in
      let chunks = List.map (Simnet.Rng.bytes rng) writes in
      let total = List.fold_left (fun a b -> a + Bytes.length b) 0 chunks in
      let expect = Bytes.concat Bytes.empty chunks in
      let got = Bytes.create total in
      Engine.spawn engine ~name:"w" (fun () -> List.iter (Tcpnet.send c0) chunks);
      Engine.spawn engine ~name:"r" (fun () ->
          Tcpnet.recv c1 got ~off:0 ~len:cut;
          Tcpnet.recv c1 got ~off:cut ~len:(total - cut));
      Engine.run engine;
      Bytes.equal expect got)

(* Random sleeps wake in global time order, regardless of spawn order. *)
let prop_engine_sleep_ordering =
  QCheck.Test.make ~name:"engine wakes sleeps in time order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 10_000))
    (fun delays ->
      let e = Engine.create () in
      let woke = ref [] in
      List.iteri
        (fun i d ->
          Engine.spawn e ~name:(string_of_int i) (fun () ->
              Engine.sleep d;
              woke := d :: !woke))
        delays;
      Engine.run e;
      List.rev !woke = List.stable_sort compare delays)

(* The monomorphic event queue pops in exactly the order a reference
   model predicts: stable (time, seq) order, FIFO on equal times. Random
   push/pop interleavings exercise hole-bubbling in both directions and
   the slot-clearing take path. *)
let prop_eventq_model =
  QCheck.Test.make ~name:"event queue matches reference model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 200) (option (int_range 0 30)))
    (fun ops ->
      let module Eq = Marcel.Eventq in
      let q = Eq.create () in
      let model = ref [] in
      let seq = ref 0 in
      let popped = ref [] in
      let expected = ref [] in
      let key_order (t1, s1) (t2, s2) =
        if t1 <> t2 then compare t1 t2 else compare s1 s2
      in
      let pop_both () =
        match List.sort key_order !model with
        | [] -> assert (Eq.is_empty q)
        | min :: rest ->
            expected := min :: !expected;
            model := rest;
            (Eq.take q) ()
      in
      List.iter
        (function
          | Some time ->
              incr seq;
              let s = !seq in
              Eq.push q ~time ~seq:s (fun () -> popped := (time, s) :: !popped);
              model := (time, s) :: !model
          | None -> pop_both ())
        ops;
      while not (Eq.is_empty q) do
        pop_both ()
      done;
      !model = [] && List.rev !popped = List.rev !expected)

(* MPI allreduce computes the same sum at every rank, any world size. *)
let prop_mpi_allreduce_sum =
  QCheck.Test.make ~name:"mpi allreduce sums at every rank" ~count:15
    QCheck.(
      make
        Gen.(
          let* n = int_range 2 6 in
          let* values = list_repeat n (int_range (-1000) 1000) in
          return (n, values))
        ~print:(fun (n, vs) ->
          Printf.sprintf "n=%d [%s]" n
            (String.concat ";" (List.map string_of_int vs))))
    (fun (n, values) ->
      let module Mpi = Mpilite.Mpi in
      let w = H.make_mpi_world ~n H.Chmad in
      let expected = List.fold_left ( + ) 0 values in
      let ok = ref true in
      let int_sum a b =
        let r = Bytes.create 8 in
        Bytes.set_int64_le r 0
          (Int64.add (Bytes.get_int64_le a 0) (Bytes.get_int64_le b 0));
        r
      in
      List.iteri
        (fun r v ->
          Engine.spawn w.H.mpi_engine ~name:(Printf.sprintf "r%d" r) (fun () ->
              let c = Mpi.ctx w.H.mpi_world ~rank:r in
              let mine = Bytes.create 8 in
              Bytes.set_int64_le mine 0 (Int64.of_int v);
              let result = Mpi.allreduce c ~op:int_sum mine in
              if Int64.to_int (Bytes.get_int64_le result 0) <> expected then
                ok := false))
        values;
      Engine.run w.H.mpi_engine;
      !ok)

(* PM2: any number of concurrent RPCs with completions all signal. *)
let prop_pm2_rpc_storm =
  QCheck.Test.make ~name:"pm2 rpc storm all complete" ~count:15
    QCheck.(
      make
        Gen.(
          let* n = int_range 2 5 in
          let* rpcs = int_range 1 30 in
          return (n, rpcs))
        ~print:(fun (n, r) -> Printf.sprintf "n=%d rpcs=%d" n r))
    (fun (n, rpcs) ->
      let w = H.make_world ~n H.sisci_driver Simnet.Netparams.sci in
      let pm = Pm2.create_world w.H.engine w.H.channel in
      let hits = ref 0 in
      let bump =
        Pm2.register pm ~name:"bump" (fun t ic ->
            let c = Pm2.Completion.unpack ic in
            Mad.end_unpacking ic;
            incr hits;
            Pm2.Completion.signal t c)
      in
      for me = 0 to n - 1 do
        Engine.spawn w.H.engine ~name:(Printf.sprintf "caller%d" me) (fun () ->
            for i = 1 to rpcs do
              let dst = (me + 1 + (i mod (n - 1))) mod n in
              let dst = if dst = me then (dst + 1) mod n else dst in
              let c = Pm2.Completion.create pm.(me) in
              Pm2.rpc pm.(me) ~dst bump ~pack:(fun oc ->
                  Pm2.Completion.pack c oc);
              Pm2.Completion.wait c
            done)
      done;
      Engine.run w.H.engine;
      !hits = n * rpcs)

(* Random multi-cluster topologies, declared via Clusterfile: a chain of
   1-4 clusters over random interface types, joined by gateways; every
   pair of nodes must be routable and deliver content intact. *)
let cluster_chain_gen =
  QCheck.Gen.(
    let* n_clusters = int_range 1 4 in
    let* kinds =
      list_repeat n_clusters (oneofl [ "sisci"; "bip"; "tcp"; "via"; "sbp" ])
    in
    (* A lone cluster has no gateways, so it needs two interior nodes to
       form a channel; chained clusters get gateways as extra members. *)
    let lo = if n_clusters = 1 then 2 else 1 in
    let* sizes = list_repeat n_clusters (int_range lo 2) in
    return (kinds, sizes))

let chain_arbitrary =
  QCheck.make cluster_chain_gen ~print:(fun (kinds, sizes) ->
      String.concat "+"
        (List.map2 (fun k s -> Printf.sprintf "%s/%d" k s) kinds sizes))

(* Builds the textual description: cluster i has [sizes_i] interior
   nodes; consecutive clusters share a gateway node on both networks. *)
let chain_config (kinds, sizes) =
  let b = Buffer.create 256 in
  List.iteri
    (fun i kind -> Buffer.add_string b (Printf.sprintf "network n%d type=%s\n" i kind))
    kinds;
  let n_clusters = List.length kinds in
  (* gateways g0..g(k-2); interior nodes cI_J *)
  let node_names = ref [] in
  for i = 0 to n_clusters - 1 do
    let size = List.nth sizes i in
    for j = 0 to size - 1 do
      let name = Printf.sprintf "c%d_%d" i j in
      Buffer.add_string b (Printf.sprintf "node %s nets=n%d\n" name i);
      node_names := name :: !node_names
    done;
    if i < n_clusters - 1 then begin
      let name = Printf.sprintf "g%d" i in
      Buffer.add_string b
        (Printf.sprintf "node %s nets=n%d,n%d\n" name i (i + 1));
      node_names := name :: !node_names
    end
  done;
  for i = 0 to n_clusters - 1 do
    let members =
      List.filter
        (fun n ->
          (String.length n > 1 && n.[0] = 'c'
           && int_of_string (String.sub n 1 (String.index n '_' - 1)) = i)
          || (n.[0] = 'g'
              && (int_of_string (String.sub n 1 (String.length n - 1)) = i
                  || int_of_string (String.sub n 1 (String.length n - 1)) = i - 1)))
        (List.rev !node_names)
    in
    Buffer.add_string b
      (Printf.sprintf "channel ch%d net=n%d nodes=%s\n" i i
         (String.concat "," members))
  done;
  Buffer.add_string b
    (Printf.sprintf "vchannel wan channels=%s mtu=4096\n"
       (String.concat ","
          (List.init n_clusters (fun i -> Printf.sprintf "ch%d" i))));
  (Buffer.contents b, List.rev !node_names)

let prop_random_cluster_chain =
  QCheck.Test.make ~name:"random cluster chains route everywhere" ~count:15
    chain_arbitrary
    (fun spec ->
      let text, names = chain_config spec in
      match Clusterfile.load text with
      | exception Invalid_argument _ -> false
      | t ->
          let vc = Clusterfile.vchannel t "wan" in
          let ranks = List.map (Clusterfile.rank_of t) names in
          let ok = ref true in
          let pending = ref 0 in
          List.iter
            (fun src ->
              List.iter
                (fun dst ->
                  if src <> dst then begin
                    incr pending;
                    let data =
                      H.payload 700 (Int64.of_int ((src * 97) + dst))
                    in
                    Engine.spawn (Clusterfile.engine t)
                      ~name:(Printf.sprintf "s%d-%d" src dst) (fun () ->
                        let oc =
                          Madeleine.Vchannel.begin_packing vc ~me:src
                            ~remote:dst
                        in
                        Madeleine.Vchannel.pack oc data;
                        Madeleine.Vchannel.end_packing oc);
                    Engine.spawn (Clusterfile.engine t)
                      ~name:(Printf.sprintf "r%d-%d" src dst) (fun () ->
                        let sink = Bytes.create 700 in
                        let ic =
                          Madeleine.Vchannel.begin_unpacking_from vc ~me:dst
                            ~remote:src
                        in
                        Madeleine.Vchannel.unpack ic sink;
                        Madeleine.Vchannel.end_unpacking ic;
                        if not (Bytes.equal data sink) then ok := false;
                        decr pending)
                  end)
                ranks)
            ranks;
          Engine.run (Clusterfile.engine t);
          !ok && !pending = 0)

(* Bounded memory under credit-based flow control: for ANY random
   bidirectional traffic pattern through the gateway, with credits and
   the forwarding pool deliberately small, no instrumented buffering
   point (destination assemblers, gateway pools, origin re-emission
   logs) ever exceeds its configured bound — and every byte still
   arrives intact. *)
let prop_credit_bounded_memory =
  QCheck.Test.make ~name:"credits bound every queue under random traffic"
    ~count:20
    QCheck.(
      make
        Gen.(
          let* credits = int_range 2 6 in
          let* mtu = oneofl [ 1024; 2048; 4096 ] in
          let* fwd = list_size (int_range 1 6) (int_range 1 20_000) in
          let* back = list_size (int_range 1 6) (int_range 1 20_000) in
          return (credits, mtu, fwd, back))
        ~print:(fun (credits, mtu, fwd, back) ->
          Printf.sprintf "credits=%d mtu=%d fwd=[%s] back=[%s]" credits mtu
            (String.concat ";" (List.map string_of_int fwd))
            (String.concat ";" (List.map string_of_int back))))
    (fun (credits, mtu, fwd, back) ->
      let w = Harness.two_cluster_world () in
      let vc =
        Madeleine.Vchannel.create w.H.cw_session ~mtu ~credits ~gw_pool:2
          [ w.H.ch_sci; w.H.ch_myri ]
      in
      let rng = Simnet.Rng.create ~seed:11L in
      let fwd_payloads = List.map (Simnet.Rng.bytes rng) fwd in
      let back_payloads = List.map (Simnet.Rng.bytes rng) back in
      let ok = ref true in
      let send ~me ~remote payloads name =
        Engine.spawn w.H.cw_engine ~name (fun () ->
            List.iter
              (fun data ->
                let oc = Madeleine.Vchannel.begin_packing vc ~me ~remote in
                Madeleine.Vchannel.pack oc data;
                Madeleine.Vchannel.end_packing oc)
              payloads)
      and recv ~me ~remote payloads name =
        Engine.spawn w.H.cw_engine ~name (fun () ->
            List.iter
              (fun expect ->
                let sink = Bytes.create (Bytes.length expect) in
                let ic =
                  Madeleine.Vchannel.begin_unpacking_from vc ~me ~remote
                in
                Madeleine.Vchannel.unpack ic sink;
                Madeleine.Vchannel.end_unpacking ic;
                if not (Bytes.equal expect sink) then ok := false)
              payloads)
      in
      send ~me:0 ~remote:2 fwd_payloads "fwd-s";
      recv ~me:2 ~remote:0 fwd_payloads "fwd-r";
      send ~me:2 ~remote:0 back_payloads "back-s";
      recv ~me:0 ~remote:2 back_payloads "back-r";
      Engine.run w.H.cw_engine;
      let bounded =
        List.for_all
          (fun q ->
            match q.Madeleine.Vchannel.q_bound with
            | Some b -> q.Madeleine.Vchannel.q_peak <= b
            | None -> true)
          (Madeleine.Vchannel.queue_stats vc)
      in
      !ok && bounded)

(* Determinism: the same scenario simulated twice gives the same clock. *)
let prop_determinism =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:10
    QCheck.(make Gen.(int_range 1 50_000) ~print:string_of_int)
    (fun n ->
      let run () =
        Marcel.Time.to_ns (H.mad_pingpong (H.bip_world ()) ~bytes_count:n ~iters:3)
      in
      Int.equal (run ()) (run ()))

(* Clusterfile fuzzing: mutants of the example cluster files either
   load or raise [Parse_error] naming a line inside the file, never
   another exception. Clusterfile_mutants (test/mutants) describes
   the mutations. *)
let example_cfgs =
  [
    "../examples/clusters/two_cluster.cfg";
    "../examples/clusters/three_cluster.cfg";
  ]

let prop_clusterfile_mutants =
  QCheck.Test.make ~name:"clusterfile mutants load or fail on a line"
    ~count:1000
    QCheck.(
      make
        ~print:(fun (text, _) -> text)
        Gen.(
          let* path = oneofl example_cfgs in
          let base = In_channel.with_open_bin path In_channel.input_all in
          let* text = Clusterfile_mutants.mutant base in
          return (text, ())))
    (fun (text, ()) ->
      let n = List.length (String.split_on_char '\n' text) in
      match Clusterfile.load text with
      | _ -> true
      | exception Clusterfile.Parse_error (line, _) -> line >= 1 && line <= n)

(* Routing against a reference model: the list-copying breadth-first
   search and overload merge that Routing replaced, over channels
   labelled by ints. A node's route is its discoverer's route with one
   hop appended; the first edge to reach a node wins. *)
module Routing = Madeleine.Routing

let ref_routes ~down ~n channels =
  let routes = Array.make_matrix n n [] in
  let adj = Array.make n [] in
  List.iter
    (fun (c, members) ->
      List.iter (fun u -> adj.(u) <- (c, members) :: adj.(u)) members)
    (List.rev channels);
  for src = 0 to n - 1 do
    if adj.(src) <> [] && not (down src src) then begin
      let row = routes.(src) in
      let reached v = v = src || row.(v) <> [] in
      let frontier = Queue.create () in
      Queue.push src frontier;
      while not (Queue.is_empty frontier) do
        let u = Queue.pop frontier in
        List.iter
          (fun (c, members) ->
            List.iter
              (fun v ->
                if v <> u && (not (down u v)) && not (reached v) then begin
                  row.(v) <- row.(u) @ [ (c, v) ];
                  Queue.push v frontier
                end)
              members)
          adj.(u)
      done
    end
  done;
  routes

(* Pairs whose route can avoid every overloaded rank take that route. *)
let ref_recompute ~down ~overloaded ~n channels =
  let fresh = ref_routes ~down ~n channels in
  if Array.exists Fun.id overloaded then begin
    let strict =
      ref_routes ~n channels ~down:(fun u v -> down u v || overloaded.(v))
    in
    Array.iteri
      (fun src ->
        Array.iteri (fun dst hops ->
            if hops <> [] then fresh.(src).(dst) <- hops))
      strict
  end;
  fresh

let ref_neighbours channels r =
  List.fold_left
    (fun acc (_, members) ->
      if List.mem r members then
        List.fold_left
          (fun acc v -> if v = r || List.mem v acc then acc else acc @ [ v ])
          acc members
      else acc)
    [] channels

(* A random world: 2-12 ranks, 1-5 channels of shuffled members, three
   edge-shaped [down] matrices (creation, recompute, physical hop) and
   an overloaded set. *)
let routing_world_gen =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* k = int_range 1 5 in
    let* channels =
      list_repeat k
        (let* members = shuffle_l (List.init n Fun.id) in
         let* size = int_range 1 n in
         return (List.filteri (fun i _ -> i < size) members))
    in
    let coin p = float_bound_exclusive 1.0 >|= fun x -> x < p in
    let matrix p = array_repeat n (array_repeat n (coin p)) in
    let* down0 = matrix 0.1 and* down1 = matrix 0.25 and* down2 = matrix 0.25 in
    let* overloaded = array_repeat n (coin 0.3) in
    let channels = List.mapi (fun c m -> (c, m)) channels in
    return (n, channels, down0, down1, down2, overloaded))

let print_routing_world (n, channels, _, _, _, _) =
  let members m = String.concat "," (List.map string_of_int m) in
  Printf.sprintf "n=%d %s" n
    (String.concat "; "
       (List.map (fun (c, m) -> Printf.sprintf "c%d=[%s]" c (members m))
          channels))

let prop_routing_reference =
  QCheck.Test.make ~name:"routing matches the list-copying reference"
    ~count:500
    (QCheck.make routing_world_gen ~print:print_routing_world)
    (fun (n, channels, down0, down1, down2, overloaded) ->
      let edge m u v = m.(u).(v) in
      let g = Routing.create ~n channels ~down:(edge down0) in
      let base = ref_routes ~n channels ~down:(edge down0) in
      let before = Routing.routes g in
      Routing.recompute g ~down:(edge down1) ~overloaded;
      let cur = ref_recompute ~n channels ~down:(edge down1) ~overloaded in
      let physical = ref_routes ~n channels ~down:(edge down2) in
      let hop (h : int Routing.hop) = (h.hop_channel, h.hop_to) in
      let first = function h :: _ -> Some h | [] -> None in
      let ranks = List.init n Fun.id in
      List.for_all
        (fun r ->
          Routing.mem g r = List.exists (fun (_, m) -> List.mem r m) channels
          && Routing.neighbours g r = ref_neighbours channels r
          && Routing.channels_of g r
             = List.filter_map
                 (fun (c, m) -> if List.mem r m then Some c else None)
                 channels)
        ranks
      && List.for_all
           (fun (src, dst) ->
             let hops = cur.(src).(dst) in
             let next =
               try Some (hop (Routing.next_hop g ~src ~dst))
               with Not_found -> None
             in
             Routing.via g ~src ~dst = List.map snd hops
             && Routing.routed g src dst = (hops <> [])
             && next = first hops
             && Routing.base_length g ~src ~dst = List.length base.(src).(dst)
             && Routing.changed g ~before src dst = (base.(src).(dst) <> hops)
             && Option.map hop
                  (Routing.first_hop g ~down:(edge down2) ~src ~dst)
                = first physical.(src).(dst)
             && (src = dst
                || Routing.same_channel g src dst
                   = List.exists
                       (fun (_, m) -> List.mem src m && List.mem dst m)
                       channels))
           (List.concat_map (fun a -> List.map (fun b -> (a, b)) ranks) ranks))

(* Ties break in channel-list order: in the two-gateway world (ethA
   holds 0, 1, 2 and ethB holds 1, 2, 3), 0 reaches both gateways in
   one hop, and 1 is listed first on ethA, so 0 -> 3 goes via 1. *)
let test_routing_tie_order () =
  let g =
    Routing.create ~n:4
      [ ("ethA", [ 0; 1; 2 ]); ("ethB", [ 1; 2; 3 ]) ]
      ~down:(fun _ _ -> false)
  in
  Alcotest.(check (list int)) "0 -> 3" [ 1; 3 ] (Routing.via g ~src:0 ~dst:3);
  Alcotest.(check string) "first hop channel" "ethA"
    (Routing.next_hop g ~src:0 ~dst:3).Routing.hop_channel;
  Alcotest.(check (list int)) "3 -> 0" [ 1; 0 ] (Routing.via g ~src:3 ~dst:0)

let () =
  Alcotest.run "properties"
    [
      ( "roundtrips",
        [
          QCheck_alcotest.to_alcotest (prop_roundtrip "bip" H.bip_world);
          QCheck_alcotest.to_alcotest (prop_roundtrip "sisci" H.sisci_world);
          QCheck_alcotest.to_alcotest (prop_roundtrip "tcp" H.tcp_world);
          QCheck_alcotest.to_alcotest prop_vchannel_roundtrip;
        ] );
      ( "protocol invariants",
        [
          QCheck_alcotest.to_alcotest prop_mpi_matching;
          QCheck_alcotest.to_alcotest prop_tcp_segmentation;
          QCheck_alcotest.to_alcotest prop_engine_sleep_ordering;
          QCheck_alcotest.to_alcotest prop_eventq_model;
          QCheck_alcotest.to_alcotest prop_mpi_allreduce_sum;
          QCheck_alcotest.to_alcotest prop_pm2_rpc_storm;
          QCheck_alcotest.to_alcotest prop_random_cluster_chain;
          QCheck_alcotest.to_alcotest prop_credit_bounded_memory;
          QCheck_alcotest.to_alcotest prop_determinism;
          QCheck_alcotest.to_alcotest prop_clusterfile_mutants;
        ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest prop_routing_reference;
          Alcotest.test_case "ties break in channel-list order" `Quick
            test_routing_tie_order;
        ] );
    ]
