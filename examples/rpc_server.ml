(* RPC over Nexus/Madeleine: a replicated key-value store.

   The paper motivates Madeleine with RPC-style runtimes (§1): a request
   header must be examined by the runtime (which handler?) and by the
   application (how much space?) before the payload lands. This example
   runs a key-value server on one node and two client nodes issuing
   lookups and inserts through Nexus remote service requests, first over
   Madeleine/SCI, then over plain TCP, printing the per-operation cost
   of each transport.

   Run with: dune exec examples/rpc_server.exe *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Nx = Nexus

let h_insert = 0
let h_lookup = 1
let h_reply = 0

let run_world proto_name transports engine =
  let world = Nx.create_world engine ~transports in
  let server = Nx.ctx world ~rank:0 in
  let store : (string, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
  (* Per-client reply paths. *)
  let reply_boxes = Array.init 3 (fun _ -> Marcel.Mailbox.create ()) in
  let client_sps =
    Array.init 3 (fun r ->
        if r = 0 then None
        else
          let c = Nx.ctx world ~rank:r in
          let ep =
            Nx.make_endpoint c
              ~handlers:
                [|
                  (fun _ buf ->
                    let len = Nx.Buffer.get_int buf in
                    Marcel.Mailbox.put reply_boxes.(r)
                      (Nx.Buffer.get_bytes buf ~len));
                |]
          in
          Some (Nx.startpoint ep))
  in
  let get_string buf =
    let len = Nx.Buffer.get_int buf in
    Bytes.to_string (Nx.Buffer.get_bytes buf ~len)
  in
  let server_ep =
    Nx.make_endpoint server
      ~handlers:
        [|
          (* insert(key, value) -> ack *)
          (fun ctx buf ->
            let client = Nx.Buffer.get_int buf in
            let key = get_string buf in
            let vlen = Nx.Buffer.get_int buf in
            let value = Nx.Buffer.get_bytes buf ~len:vlen in
            Hashtbl.replace store key value;
            let reply = Nx.Buffer.create () in
            Nx.Buffer.put_int reply 2;
            Nx.Buffer.put_bytes reply (Bytes.of_string "ok");
            Nx.send_rsr ctx (Option.get client_sps.(client)) ~handler:h_reply
              reply);
          (* lookup(key) -> value *)
          (fun ctx buf ->
            let client = Nx.Buffer.get_int buf in
            let key = get_string buf in
            let value =
              Option.value (Hashtbl.find_opt store key)
                ~default:(Bytes.of_string "<missing>")
            in
            let reply = Nx.Buffer.create () in
            Nx.Buffer.put_int reply (Bytes.length value);
            Nx.Buffer.put_bytes reply value;
            Nx.send_rsr ctx (Option.get client_sps.(client)) ~handler:h_reply
              reply);
        |]
  in
  let server_sp = Nx.startpoint server_ep in
  let stats = Simnet.Stats.create () in
  let run_client r =
    Engine.spawn engine ~name:(Printf.sprintf "client.%d" r) (fun () ->
        let c = Nx.ctx world ~rank:r in
        for i = 1 to 20 do
          let key = Printf.sprintf "key-%d-%d" r i in
          let value = Bytes.make (64 * i) (Char.chr (64 + r)) in
          let t0 = Engine.now engine in
          (* insert *)
          let buf = Nx.Buffer.create () in
          Nx.Buffer.put_int buf r;
          Nx.Buffer.put_int buf (String.length key);
          Nx.Buffer.put_bytes buf (Bytes.of_string key);
          Nx.Buffer.put_int buf (Bytes.length value);
          Nx.Buffer.put_bytes buf value;
          Nx.send_rsr c server_sp ~handler:h_insert buf;
          ignore (Marcel.Mailbox.take reply_boxes.(r));
          (* lookup *)
          let buf = Nx.Buffer.create () in
          Nx.Buffer.put_int buf r;
          Nx.Buffer.put_int buf (String.length key);
          Nx.Buffer.put_bytes buf (Bytes.of_string key);
          Nx.send_rsr c server_sp ~handler:h_lookup buf;
          let got = Marcel.Mailbox.take reply_boxes.(r) in
          assert (Bytes.equal got value);
          Simnet.Stats.add stats
            (Time.to_us (Time.diff (Engine.now engine) t0) /. 2.0)
        done)
  in
  run_client 1;
  run_client 2;
  Engine.run engine;
  Format.printf
    "%-18s %3d RPCs, mean %6.1f us/op (min %6.1f, max %6.1f), store=%d keys@."
    proto_name
    (Simnet.Stats.count stats)
    (Simnet.Stats.mean stats) (Simnet.Stats.min stats) (Simnet.Stats.max stats)
    (Hashtbl.length store)

let () =
  (* Over Madeleine/SCI. *)
  let sci =
    Clusterfile.load
      {|
network sci  type=sisci
node n0  nets=sci
node n1  nets=sci
node n2  nets=sci
channel c  net=sci  nodes=n0,n1,n2
|}
  in
  let channel = Clusterfile.channel sci "c" in
  run_world "nexus/mad/SCI"
    (Array.init 3 (fun rank -> Nx.mad_transport channel ~rank))
    (Clusterfile.engine sci);

  (* Over plain TCP: the same nodes, no Madeleine channel. *)
  let eth =
    Clusterfile.load
      {|
network eth  type=tcp
node n0  nets=eth
node n1  nets=eth
node n2  nets=eth
|}
  in
  let engine = Clusterfile.engine eth in
  let stacks =
    Array.init 3 (fun i ->
        Clusterfile.tcp_stack eth ~net:"eth" (Printf.sprintf "n%d" i))
  in
  run_world "nexus/TCP" (Nx.tcp_transports engine ~stacks) engine;
  print_endline "rpc_server: done"
