(* Multi-protocol session: the paper's headline capability (§2.1).

   One application, one pair of nodes, two networks: a TCP channel over
   Fast Ethernet carries small control messages, while an SCI channel
   carries the bulk data — and the application switches between them
   dynamically. A control request ("send me block k") goes over TCP; the
   corresponding 256 kB block comes back over SISCI/SCI. The two channels
   are fully isolated worlds, as the interface promises.

   Run with: dune exec examples/multi_protocol.exe *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mad = Madeleine.Api
module Iface = Madeleine.Iface
module Channel = Madeleine.Channel

let block_size = 256 * 1024
let blocks = 4

let () =
  (* Two networks, Fast Ethernet and SCI, both NICs in both nodes. *)
  let cluster =
    Clusterfile.load
      {|
network eth  type=tcp
network sci  type=sisci
node client  nets=eth,sci
node server  nets=eth,sci
channel control  net=eth  nodes=client,server
channel bulk     net=sci  nodes=client,server
|}
  in
  let engine = Clusterfile.engine cluster in
  let control = Clusterfile.channel cluster "control" in
  let bulk = Clusterfile.channel cluster "bulk" in

  let dataset =
    Array.init blocks (fun k ->
        Simnet.Rng.bytes (Simnet.Rng.create ~seed:(Int64.of_int k)) block_size)
  in

  Engine.spawn engine ~name:"server" (fun () ->
      let ctl = Channel.endpoint control ~rank:1 in
      let blk = Channel.endpoint bulk ~rank:1 in
      for _ = 1 to blocks do
        (* Control request arrives over TCP... *)
        let ic = Mad.begin_unpacking ctl in
        let req = Bytes.create 4 in
        Mad.unpack ic ~r_mode:Iface.Receive_express req;
        Mad.end_unpacking ic;
        let k = Int32.to_int (Bytes.get_int32_le req 0) in
        Format.printf "[%a] server: request for block %d via %s@." Time.pp
          (Engine.now engine) k "TCP/ethernet";
        (* ...and the block leaves over SCI. *)
        let oc = Mad.begin_packing blk ~remote:0 in
        Mad.pack oc ~r_mode:Iface.Receive_cheaper dataset.(k);
        Mad.end_packing oc
      done);

  Engine.spawn engine ~name:"client" (fun () ->
      let ctl = Channel.endpoint control ~rank:0 in
      let blk = Channel.endpoint bulk ~rank:0 in
      for k = 0 to blocks - 1 do
        let t_req = Engine.now engine in
        let oc = Mad.begin_packing ctl ~remote:1 in
        let req = Bytes.create 4 in
        Bytes.set_int32_le req 0 (Int32.of_int k);
        Mad.pack oc ~r_mode:Iface.Receive_express req;
        Mad.end_packing oc;
        let ic = Mad.begin_unpacking blk in
        let sink = Bytes.create block_size in
        Mad.unpack ic ~r_mode:Iface.Receive_cheaper sink;
        Mad.end_unpacking ic;
        let elapsed = Time.diff (Engine.now engine) t_req in
        Format.printf
          "[%a] client: block %d (%d kB) fetched in %a (%s), bulk at %.1f MB/s@."
          Time.pp (Engine.now engine) k (block_size / 1024) Time.pp elapsed
          (if Bytes.equal sink dataset.(k) then "intact" else "CORRUPT")
          (Time.rate_mb_s ~bytes_count:block_size elapsed)
      done);

  Engine.run engine;
  Format.printf "multi_protocol: done at %a of simulated time@." Time.pp
    (Engine.now engine)
