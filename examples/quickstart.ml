(* Quickstart: the paper's Figure 1, as a runnable program.

   A sender ships an array whose size the receiver cannot predict. The
   size travels EXPRESS — the receiver needs it immediately, to allocate
   the destination — and the bulk data CHEAPER, letting Madeleine pick
   the fastest path on the wire (here: BIP's zero-copy rendezvous over
   simulated Myrinet).

   Run with: dune exec examples/quickstart.exe *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mad = Madeleine.Api
module Iface = Madeleine.Iface

let () =
  (* A two-node Myrinet cluster with BIP. *)
  let cluster =
    Clusterfile.load
      {|
network myrinet  type=bip
node sender      nets=myrinet
node receiver    nets=myrinet
channel c        net=myrinet  nodes=sender,receiver
|}
  in
  let engine = Clusterfile.engine cluster in
  let channel = Clusterfile.channel cluster "c" in

  let array_size = 100_000 in
  let data = Simnet.Rng.bytes (Simnet.Rng.create ~seed:1L) array_size in

  Engine.spawn engine ~name:"sender" (fun () ->
      let ep = Madeleine.Channel.endpoint channel ~rank:0 in
      let oc = Mad.begin_packing ep ~remote:1 in
      let size_header = Bytes.create 4 in
      Bytes.set_int32_le size_header 0 (Int32.of_int array_size);
      (* The receiver must see the size before it can post the array. *)
      Mad.pack oc ~r_mode:Iface.Receive_express size_header;
      Mad.pack oc ~r_mode:Iface.Receive_cheaper data;
      Mad.end_packing oc;
      Format.printf "[%a] sender: message of %d bytes packed and flushed@."
        Time.pp (Engine.now engine) array_size);

  Engine.spawn engine ~name:"receiver" (fun () ->
      let ep = Madeleine.Channel.endpoint channel ~rank:1 in
      let ic = Mad.begin_unpacking ep in
      let size_header = Bytes.create 4 in
      Mad.unpack ic ~r_mode:Iface.Receive_express size_header;
      (* EXPRESS: the value is live right now. *)
      let size = Int32.to_int (Bytes.get_int32_le size_header 0) in
      Format.printf "[%a] receiver: header says %d bytes, allocating@." Time.pp
        (Engine.now engine) size;
      let sink = Bytes.create size in
      Mad.unpack ic ~r_mode:Iface.Receive_cheaper sink;
      Mad.end_unpacking ic;
      Format.printf "[%a] receiver: array extracted, content %s@." Time.pp
        (Engine.now engine)
        (if Bytes.equal sink data then "OK" else "CORRUPT"));

  Engine.run engine;
  Format.printf "quickstart: done at %a of simulated time@." Time.pp
    (Engine.now engine)
