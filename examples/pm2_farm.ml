(* A PM2-style master/worker task farm over Madeleine/SCI.

   Rank 0 farms out ranges of a numeric search (counting primes) to
   three workers through asynchronous raw RPCs; each worker computes and
   RPCs its partial result back to the master's accumulator service.
   Everything rides Madeleine messages: service ids EXPRESS, arguments
   CHEAPER, completions for the final synchronization — the programming
   model the paper built Madeleine for (§1).

   Run with: dune exec examples/pm2_farm.exe *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mad = Madeleine.Api
module Iface = Madeleine.Iface

let tasks = 12
let range_per_task = 20_000

let count_primes lo hi =
  let is_prime n =
    if n < 2 then false
    else begin
      let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
      go 2
    end
  in
  let count = ref 0 in
  for n = lo to hi - 1 do
    if is_prime n then incr count
  done;
  !count

let pack_ints oc ints =
  let b = Bytes.create (8 * List.length ints) in
  List.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) ints;
  Mad.pack oc ~r_mode:Iface.Receive_express b

let unpack_ints ic n =
  let b = Bytes.create (8 * n) in
  Mad.unpack ic ~r_mode:Iface.Receive_express b;
  List.init n (fun i -> Int64.to_int (Bytes.get_int64_le b (8 * i)))

let () =
  (* Rank 0 is the master, ranks 1-3 the workers. *)
  let cluster =
    Clusterfile.load
      {|
network sci  type=sisci
node master   nets=sci
node worker1  nets=sci
node worker2  nets=sci
node worker3  nets=sci
channel c  net=sci  nodes=master,worker1,worker2,worker3
|}
  in
  let engine = Clusterfile.engine cluster in
  let channel = Clusterfile.channel cluster "c" in
  let workers = List.length (Clusterfile.nodes cluster) - 1 in
  let pm = Pm2.create_world engine channel in

  let total = ref 0 and results_seen = ref 0 in
  let all_done = Marcel.Ivar.create () in

  (* Master-side accumulator: workers RPC their partial counts here. *)
  let accumulate =
    Pm2.register pm ~quick:true ~name:"accumulate" (fun _ ic ->
        match unpack_ints ic 3 with
        | [ task; lo; count ] ->
            Mad.end_unpacking ic;
            total := !total + count;
            incr results_seen;
            Format.printf "[%a] master: task %2d (from %d) -> %d primes@."
              Time.pp (Engine.now engine) task lo count;
            if !results_seen = tasks then Marcel.Ivar.fill all_done ()
        | _ -> assert false)
  in

  (* Worker-side compute service: threaded, since it takes a while. *)
  let compute =
    Pm2.register pm ~name:"compute" (fun t ic ->
        match unpack_ints ic 3 with
        | [ task; lo; hi ] ->
            Mad.end_unpacking ic;
            let count = count_primes lo hi in
            (* Charge some virtual CPU time for the computation. *)
            Engine.sleep (Time.us (float_of_int (hi - lo) /. 50.0));
            Pm2.rpc t ~dst:0 accumulate ~pack:(fun oc ->
                pack_ints oc [ task; lo; count ])
        | _ -> assert false)
  in

  Engine.spawn engine ~name:"master" (fun () ->
      for task = 0 to tasks - 1 do
        let lo = 2 + (task * range_per_task) in
        let worker = 1 + (task mod workers) in
        Pm2.rpc pm.(0) ~dst:worker compute ~pack:(fun oc ->
            pack_ints oc [ task; lo; lo + range_per_task ])
      done;
      Marcel.Ivar.read all_done;
      Format.printf
        "[%a] master: %d primes below %d, computed by %d workers@." Time.pp
        (Engine.now engine) !total
        (2 + (tasks * range_per_task))
        workers);
  Engine.run engine;
  Format.printf "pm2_farm: done at %a of simulated time@." Time.pp
    (Engine.now engine)
